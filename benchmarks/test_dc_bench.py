"""Bench DC SWEEP: every VTC point a row of one settled Newton stack.

The ``scaling`` artefact's six inverter transfer curves — the physical
CNT-FET table and the Si trigate at 0.4, 0.5 and 1.0 V, 161 input
levels each — solved (a) by ``dc_sweep``: one ``settle_many`` stack per
curve, every point from its own structural seed, polished to machine
precision; and (b) by the per-point loop ``dc_sweep`` used to run,
kept below only as the timing reference: swap the source's waveform
and solve the operating point through the continuation ladder, each
point seeded from the previous one.  Both paths first run once, so
each has filled the table cells it reads before it is timed.  The
stacked rows are asserted equal to the sequential machine-precision
oracle of ``tests/circuit/scalar_oracle.py`` at 1e-8 (per unknown,
relative to its range), and the stack >= 3x faster than the loop.

Timings print as informational rows; the assertions are the gate.
"""

import sys
import time
from pathlib import Path

import numpy as np

from conftest import print_rows, scaling_vtc_cases

from repro.circuit.dc import dc_sweep
from repro.circuit.solver import solve_dc
from repro.circuit.waveforms import DC

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "circuit"))
from scalar_oracle import sequential_sweep  # noqa: E402

SPEEDUP_BAR = 3.0
ORACLE_RTOL = 1e-8


def point_loop_sweep(circuit, source_name: str, values) -> np.ndarray:
    """The replaced sweep: one continuation solve per point, in order.

    Timing reference only: each point stops where damped Newton meets
    its residual test, up to ~1e-3 V from the root at a switching point.
    """
    source = circuit.source(source_name)
    system = circuit.build_system()
    original = source.waveform
    samples = np.empty((len(values), system.size))
    x = None
    try:
        for k, value in enumerate(values):
            source.waveform = DC(float(value))
            x = solve_dc(system, x)
            samples[k] = x
    finally:
        source.waveform = original
    return samples


def test_stacked_sweep_matches_oracle_and_beats_point_loop():
    cases = scaling_vtc_cases()

    def stacked():
        return [dc_sweep(circuit, "VIN", values).samples for _, circuit, values in cases]

    def loop():
        return [point_loop_sweep(circuit, "VIN", values) for _, circuit, values in cases]

    results = stacked()
    loop()
    stacked_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        stacked()
        stacked_s = min(stacked_s, time.perf_counter() - start)
    start = time.perf_counter()
    loop()
    loop_s = time.perf_counter() - start

    errors = []
    for (label, circuit, values), samples in zip(cases, results):
        reference = sequential_sweep(circuit, "VIN", values)
        scale = np.abs(reference).max(axis=0)
        scale[scale == 0.0] = 1.0
        errors.append((label, float(np.max(np.abs(samples - reference) / scale))))

    speedup = loop_s / stacked_s
    print_rows(
        "scaling's six 161-point inverter VTCs",
        [("per-point continuation loop [s]", loop_s),
         ("stacked settled sweep [s]", stacked_s),
         ("speedup", speedup),
         *[(f"{label}: max error vs oracle", error) for label, error in errors]],
    )
    assert all(error <= ORACLE_RTOL for _, error in errors)
    assert speedup >= SPEEDUP_BAR
