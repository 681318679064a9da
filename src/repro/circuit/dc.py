"""DC analyses: operating point and swept DC as one Newton stack.

``dc_sweep`` solves the operating point at every level of one voltage
source — Nagel's SPICE2 DC transfer curve, with every point an
independent row.  The system is built (and its stamp plan compiled)
once; each sweep point is one row of a single
:func:`~repro.circuit.solver.settle_many` stack that starts from the
point's own structural seed and carries the swept level as a per-row
source level, so the circuit's waveforms are never written.  Every row
is polished to machine precision, so near a sharp transfer-curve
transition — like the near-ideal inverter of the paper's Fig. 2(c) —
the answer records the circuit, not where Newton stopped.  A row that
fails plain Newton falls back to continuation from its nearest solved
neighbour.

Both results are :class:`~repro.circuit.netlist.Solution` stacks named
by the system's layout: one unknown vector for an operating point, one
per swept value for a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.continuation import ConvergenceError, ladder_many, structural_seed
from repro.circuit.netlist import Circuit, CircuitError, Solution
from repro.circuit.solver import settle_many, solve_dc

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
    """Solve the circuit at every level in ``values`` of the named voltage source.

    All points are rows of one :func:`~repro.circuit.solver.settle_many`
    stack, each from its own structural seed and polished to machine
    precision.  A row that converges there does not depend on the other
    values: it is bitwise the same in any sweep that contains its value,
    in any order.  A row that fails plain Newton falls back to
    continuation from its nearest solved neighbour in value (see
    :func:`_continue_from_neighbours`).  The circuit is not modified.

    ``values`` must be a non-empty 1-D sequence of finite numbers; others
    raise :class:`~repro.circuit.netlist.CircuitError` naming the
    offending entry.  A fallback row that exhausts the continuation
    ladder raises :class:`~repro.circuit.continuation.ConvergenceError`.
    """
    values = _sweep_values(values)
    source = circuit.source(source_name)
    system = circuit.build_system()
    plan = system._plan
    levels = np.tile([el.level(None) for el in plan.vsources], (values.size, 1))
    column = next(j for j, el in enumerate(plan.vsources) if el is source)
    levels[:, column] = values
    seeds = structural_seed(system, levels=levels)
    rows = settle_many(plan, seeds, source_levels=levels)
    samples = rows.x
    if not rows.converged.all():
        _continue_from_neighbours(
            plan, source_name, values, levels, seeds, samples, rows.converged
        )
    return SweepResult(system.layout, samples, swept_values=values)


def _sweep_values(values) -> np.ndarray:
    """``values`` as a float array, or a CircuitError naming the bad entry."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CircuitError(f"sweep values must be numbers: {exc}") from None
    if array.ndim != 1:
        if array.ndim == 0:
            raise CircuitError(f"sweep values must be 1-D, got the scalar {values!r}")
        raise CircuitError(
            f"sweep values must be 1-D, got shape {array.shape}: "
            f"value 0 is {array[0].tolist()!r}"
        )
    if array.size == 0:
        raise CircuitError("empty sweep")
    bad = np.flatnonzero(~np.isfinite(array))
    if bad.size:
        raise CircuitError(
            f"sweep value {int(bad[0])} is {float(array[bad[0]])!r}; "
            "every value must be finite"
        )
    return array


def _continue_from_neighbours(
    plan, source_name, values, levels, seeds, samples, converged
) -> None:
    """Solve the rows plain Newton missed, in place, from solved neighbours.

    Rows are walked in value order, in waves: each wave takes every
    unsolved row next to a solved one, starts it from that neighbour's
    solution (the nearer in value, the lower on a tie), runs the
    continuation ladder on the wave as one stack and polishes it like
    the main stack.  A run of unsolved rows is so walked in from both
    ends, point by point.  With no solved row at all, the lowest value
    walks the ladder from its own seed first.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    solved = converged[order].copy()
    last = order.size - 1
    while not solved.all():
        if solved.any():
            below = np.zeros_like(solved)
            above = np.zeros_like(solved)
            below[1:] = solved[:-1]
            above[:-1] = solved[1:]
            wave = np.flatnonzero(~solved & (below | above))
            gap_below = ordered[wave] - ordered[np.maximum(wave - 1, 0)]
            gap_above = ordered[np.minimum(wave + 1, last)] - ordered[wave]
            use_above = above[wave] & (~below[wave] | (gap_above < gap_below))
            rows = order[wave]
            start = samples[order[np.where(use_above, wave + 1, wave - 1)]]
        else:
            wave = np.zeros(1, dtype=np.intp)
            rows = order[wave]
            start = seeds[rows]
        ladder = ladder_many(plan, start, source_levels=levels[rows])
        settled = settle_many(plan, ladder.x, source_levels=levels[rows])
        failed = np.flatnonzero(~(ladder.converged & settled.converged))
        if failed.size:
            k = int(failed[0])
            report = ladder.report(k)
            if ladder.converged[k]:
                report.record(
                    "settle", None, int(settled.iterations[k]), settled.norm[k], False
                )
                report.converged = False
            raise ConvergenceError(
                f"DC sweep failed at {source_name} = {float(values[rows[k]])!r}",
                report,
            )
        samples[rows] = settled.x
        solved[wave] = True
