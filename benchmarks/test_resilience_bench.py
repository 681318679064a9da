"""Bench RESILIENCE: supervised execution overhead over the raw sweep.

The supervisor (:mod:`repro.circuit.resilience`) wraps every chunk in
per-future bookkeeping — fault lookup, merge-boundary validation,
attempt accounting, optional checkpoint writes.  Every engine run goes
through it, so the "raw" side here is a local reference loop of the
engine's own chunk solver (``_solve_chunk`` over the same blocks, no
supervisor).  The fault-free fast path must stay cheap: this benchmark
times a 1000-instance Monte Carlo of the 5-stage inverter chain raw
vs. supervised (same serial execution, same chunking) and a supervised
run with chunk checkpoints enabled, asserting the results bitwise
identical and the fault-free supervision overhead loosely bounded
(best-of-3 timings, 2x + 50 ms slack — the identity asserts are the
contract; timings are printed for inspection).

Reference numbers (single-CPU container): raw ~13 ms, supervised
~15 ms (overhead ~14%), checkpointed first run ~23 ms, checkpointed
resume ~8 ms (all four chunks served from disk).
"""

import time

import numpy as np
import pytest

from conftest import print_rows

from repro.circuit.resilience import ExecutionPolicy
from repro.circuit.sweep import CircuitMonteCarlo, FETVariation, _as_blocks
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain

N_INSTANCES = 1000
CHAIN_STAGES = 5
CHUNK = 256
SEED = 20140314


@pytest.fixture(scope="module")
def engine():
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=CHAIN_STAGES, input_waveform=DC(0.0)
    )
    return CircuitMonteCarlo(chain)


@pytest.fixture(scope="module")
def variation(engine):
    return FETVariation.sample(
        N_INSTANCES,
        len(engine.fet_names),
        seed=SEED,
        drive_sigma=0.2,
        vth_sigma_v=0.03,
    )


def _best_of(fn, repeats=3):
    """(last result, best wall time): damps scheduler noise on CI boxes."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _raw_run(engine, variation):
    """The unsupervised reference: the engine's chunk solver in a loop."""
    x0 = engine.nominal_solution()
    parts = [
        engine._solve_chunk(variation.take(slice(start, stop)), x0)
        for start, stop in _as_blocks(variation.n_instances, CHUNK)
    ]
    return (
        np.concatenate([x for x, _ in parts]),
        np.concatenate([converged for _, converged in parts]),
    )


def test_supervised_overhead(engine, variation, tmp_path_factory):
    (raw_x, raw_converged), raw_s = _best_of(lambda: _raw_run(engine, variation))
    supervised, supervised_s = _best_of(
        lambda: engine.run(variation, policy=ExecutionPolicy(chunk_size=CHUNK))
    )

    root = tmp_path_factory.mktemp("checkpoints")
    first_t = time.perf_counter()
    checkpointed = engine.run(
        variation, policy=ExecutionPolicy(chunk_size=CHUNK, checkpoint_root=root)
    )
    first_s = time.perf_counter() - first_t

    resume_policy = ExecutionPolicy(chunk_size=CHUNK, checkpoint_root=root)
    resume_t = time.perf_counter()
    resumed = engine.run(variation, policy=resume_policy)
    resume_s = time.perf_counter() - resume_t

    # Supervision must never change the numbers.
    for other in (supervised, checkpointed, resumed):
        assert np.array_equal(raw_x, other.x)
        assert np.array_equal(raw_converged, other.converged)
    # The resume really is a resume: every chunk served from disk.
    counts = resume_policy.reports[-1].counts()
    assert set(counts) == {"cached"}

    print_rows(
        "resilience: supervised sweep overhead",
        [
            ("raw sweep [ms]", raw_s * 1e3),
            ("supervised, no checkpoints [ms]", supervised_s * 1e3),
            ("supervised + checkpoint writes [ms]", first_s * 1e3),
            ("supervised resume from disk [ms]", resume_s * 1e3),
            ("fault-free supervision overhead", supervised_s / raw_s - 1.0),
        ],
    )
    # Generous bar: supervision bookkeeping must stay a small fraction
    # of real solve work; the absolute slack absorbs timer noise at
    # this millisecond scale on loaded single-core CI boxes.
    assert supervised_s < raw_s * 2.0 + 0.05
