"""Transient analysis: fixed-step backward-Euler or trapezoidal integration.

Starts from the DC operating point at t = 0 (sources at their initial
waveform values) and marches the companion-model system forward.  The
trapezoidal rule (default) is second-order accurate — validated against
closed-form RC responses in the test suite — while backward Euler is
available for heavily damped startup transients.

The scalar entry point :func:`transient` and the batched transient
Monte Carlo engine (:class:`repro.circuit.sweep.CircuitTransientMC`)
share three pieces:

* :func:`validate_grid` — the one place the ``(t_stop, dt,
  integrator)`` contract is checked and the step count is derived;
* :func:`march` — the one time-step loop.  It steps an ``(m, size)``
  stack of t=0 solutions in lockstep: per step one
  :func:`~repro.circuit.solver.newton_many` call from the previous
  solutions, one stacked continuation-ladder call
  (:func:`~repro.circuit.continuation.ladder_many`) for the rows that
  fail, and the companion-state update on ``(m, n_caps)`` arrays.  The
  scalar :func:`transient_samples` is its one-row case;
* :class:`TransientResult` — a :class:`~repro.circuit.netlist.Solution`
  whose rows are the time samples, named by the system's layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.continuation import ConvergenceError, ladder_many
from repro.circuit.netlist import Circuit, CircuitError, MNASystem, Solution
from repro.circuit.solver import newton_many, solve_dc, take_rows

__all__ = [
    "TransientResult",
    "transient",
    "march",
    "transient_samples",
    "validate_grid",
]

_INTEGRATORS = ("trapezoidal", "backward-euler")


@dataclass(frozen=True)
class TransientResult(Solution):
    """Waveforms from a transient run: ``samples[k]`` is the state at ``time_s[k]``."""

    time_s: np.ndarray


def validate_grid(t_stop_s: float, dt_s: float, integrator: str) -> int:
    """Check the time-grid contract; returns the step count.

    ``t_stop_s`` must be a whole number of ``dt_s`` steps (to 1e-9
    relative), so the march ends at ``t_stop_s``.  Shared by the scalar
    :func:`transient` and the batched
    :class:`repro.circuit.sweep.CircuitTransientMC`, so both reject the
    same inputs and march the identical grid.
    """
    if t_stop_s <= 0.0 or dt_s <= 0.0:
        raise CircuitError("t_stop and dt must be positive")
    if dt_s > t_stop_s:
        raise CircuitError(f"dt {dt_s} exceeds t_stop {t_stop_s}")
    if integrator not in _INTEGRATORS:
        raise CircuitError(f"unknown integrator {integrator!r}; use {_INTEGRATORS}")
    ratio = t_stop_s / dt_s
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * ratio:
        # The march ends at n_steps * dt: a fractional ratio would
        # silently overshoot or undershoot t_stop.
        raise CircuitError(
            f"t_stop {t_stop_s} is not a whole number of dt {dt_s} steps"
        )
    return n_steps


def march(
    plan,
    x0: np.ndarray,
    n_steps: int,
    dt_s: float,
    integrator: str,
    variation=None,
) -> tuple[np.ndarray, np.ndarray, dict[int, ConvergenceError]]:
    """Step the ``(m, size)`` t=0 solutions ``x0`` through ``n_steps``.

    Returns ``(samples, rescued, errors)``: samples ``(m, n_steps + 1,
    size)`` with ``samples[:, 0] = x0``, ``rescued[i]`` True for a row
    that entered the continuation ladder at some step, and ``errors``
    the ladder failure of each dropped row (its samples are NaN).  Each
    step runs damped Newton on the live rows from their previous
    solutions, with per-row companion state ``(m, n_caps)`` and
    ``variation`` rows; the rows whose Newton fails go through one
    :func:`~repro.circuit.continuation.ladder_many` call anchored at
    their previous solutions and companion state, and a rescued row
    rejoins the lockstep batch.
    """
    m, size = x0.shape
    samples = np.full((m, n_steps + 1, size), np.nan)
    samples[:, 0] = x0
    rescued = np.zeros(m, dtype=bool)
    errors: dict[int, ConvergenceError] = {}
    alive = np.arange(m)
    x = x0
    prevpad = np.zeros((m, size + 1))
    prevpad[:, :size] = x0
    state = np.zeros((m, len(plan.cap_names)))
    for step in range(1, n_steps + 1):
        if not alive.size:
            break
        context = {"time_s": step * dt_s, "dt_s": dt_s, "integrator": integrator}
        row_kwargs = {
            "variation": None if variation is None else variation.take(alive),
            "previous_x": prevpad[:, :size],
            "state": state,
        }
        x, converged, _, _ = newton_many(plan, x, **row_kwargs, **context)
        if np.count_nonzero(converged) < alive.size:
            failed = np.flatnonzero(~converged)
            rescued[alive[failed]] = True
            kwargs = take_rows(row_kwargs, failed)
            ladder = ladder_many(plan, kwargs["previous_x"], **kwargs, **context)
            x[failed] = ladder.x
            converged[failed] = ladder.converged
            for k in np.flatnonzero(~ladder.converged).tolist():
                errors[int(alive[failed[k]])] = ConvergenceError(
                    f"transient Newton failed at t = {context['time_s']:.3e} s",
                    ladder.report(k),
                )
            samples[alive[~converged]] = np.nan
            alive, x = alive[converged], x[converged]
            prevpad, state = prevpad[converged], state[converged]
        xpad = np.zeros((alive.size, size + 1))
        xpad[:, :size] = x
        # Update trapezoidal history currents at the accepted solution.
        if integrator == "trapezoidal" and state.shape[1]:
            state = plan.cap_state_update(xpad, prevpad, dt_s, integrator, state)
        samples[alive, step] = x
        prevpad = xpad
    return samples, rescued, errors


def transient_samples(
    system: MNASystem,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """March the system from its t=0 operating point; returns raw samples.

    The ``(n_steps + 1, size)`` matrix stacks the DC solution at t=0 and
    every accepted time step: the one-row case of :func:`march`.  A
    failed step is rescued through the adaptive continuation ladder
    anchored at the last accepted solution, and a rescue failure raises
    :class:`ConvergenceError` with the full ladder history.
    """
    n_steps = validate_grid(t_stop_s, dt_s, integrator)
    x = solve_dc(system, x0, time_s=0.0)
    samples, _, errors = march(system._plan, x[None], n_steps, dt_s, integrator)
    if errors:
        raise errors[0]
    return samples[0]


def transient(
    circuit: Circuit,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
    x0: np.ndarray | None = None,
) -> TransientResult:
    """Integrate the circuit from its t=0 operating point to ``t_stop_s``.

    The initial DC solve cold-starts through the adaptive continuation
    ladder of :mod:`repro.circuit.continuation` (structural seeding,
    adaptive gmin/source stepping, pseudo-transient fallback), so
    ``x0`` is no longer needed for long FET chains; it remains as an
    optional override for callers that want to select a particular
    operating point of a multistable circuit.
    """
    system = circuit.build_system()
    samples = transient_samples(system, t_stop_s, dt_s, integrator, x0)
    return TransientResult(
        system.layout, samples, time_s=dt_s * np.arange(samples.shape[0])
    )
