"""DC analyses: operating point and swept DC with continuation.

``dc_sweep`` re-solves the operating point while stepping one voltage
source through a list of values, seeding each solve with the previous
solution (continuation) so sharp transfer-curve transitions — like the
near-ideal inverter of the paper's Fig. 2(c) — track robustly.  The
system is built (and its stamp plan compiled) once for the whole sweep;
only source waveform levels change between points, which the compiled
evaluator re-reads on every call.

Both results are :class:`~repro.circuit.netlist.Solution` stacks named
by the system's layout: one unknown vector for an operating point, one
per swept value for a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit, CircuitError, Solution
from repro.circuit.solver import solve_dc
from repro.circuit.waveforms import DC

__all__ = ["OperatingPointResult", "SweepResult", "operating_point", "dc_sweep"]


class OperatingPointResult(Solution):
    """Solved DC state: ``samples`` is the one unknown vector.

    Lookups return Python floats.
    """


@dataclass(frozen=True)
class SweepResult(Solution):
    """DC sweep result: ``samples[k]`` solves the circuit at ``swept_values[k]``."""

    swept_values: np.ndarray


def operating_point(
    circuit: Circuit, x0: np.ndarray | None = None
) -> OperatingPointResult:
    """Solve the DC operating point of the circuit.

    Cold starts go through the continuation ladder of
    :mod:`repro.circuit.continuation` (structural seeding, plain
    Newton, pseudo-transient fallback), so deep FET
    chains need no ``x0``; the parameter remains as an override for
    selecting a branch of a multistable circuit.  Failures raise
    :class:`~repro.circuit.continuation.ConvergenceError` with the
    full ladder history.
    """
    system = circuit.build_system()
    return OperatingPointResult(system.layout, solve_dc(system, x0))


def dc_sweep(circuit: Circuit, source_name: str, values) -> SweepResult:
    """Sweep the named voltage source through ``values`` with continuation.

    The source's waveform is temporarily replaced by each DC level; the
    original waveform is restored afterwards.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise CircuitError("empty sweep")
    source = circuit.source(source_name)
    system = circuit.build_system()

    original = source.waveform
    samples = np.empty((values.size, system.size))
    x_prev: np.ndarray | None = None
    try:
        for k, value in enumerate(values):
            source.waveform = DC(float(value))
            x_prev = solve_dc(system, x_prev)
            samples[k] = x_prev
    finally:
        source.waveform = original
    return SweepResult(system.layout, samples, swept_values=values)
