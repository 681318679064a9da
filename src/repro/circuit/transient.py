"""Transient analysis: fixed-step backward-Euler or trapezoidal integration.

Starts from the DC operating point at t = 0 (sources at their initial
waveform values) and marches the companion-model system forward.  The
trapezoidal rule (default) is second-order accurate — validated against
closed-form RC responses in the test suite — while backward Euler is
available for heavily damped startup transients.

The scalar entry point :func:`transient` is composed from three
reusable pieces so the batched transient Monte Carlo engine
(:class:`repro.circuit.sweep.CircuitTransientMC`) can share them:

* :func:`validate_grid` — the one place the ``(t_stop, dt,
  integrator)`` contract is checked and the step count is derived;
* :func:`transient_samples` — the time-marching loop over raw solution
  vectors (per-step Newton with the continuation rescue), returning the
  ``(n_steps + 1, size)`` sample matrix;
* :func:`result_from_samples` — the mapping from a sample matrix to the
  named-waveform :class:`TransientResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.continuation import ConvergenceError, solve_dc_robust
from repro.circuit.elements import VoltageSource
from repro.circuit.netlist import Circuit, CircuitError, MNASystem
from repro.circuit.solver import newton_solve, solve_dc

__all__ = [
    "TransientResult",
    "transient",
    "transient_samples",
    "result_from_samples",
    "validate_grid",
]

_INTEGRATORS = ("trapezoidal", "backward-euler")


@dataclass(frozen=True)
class TransientResult:
    """Waveforms from a transient run."""

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> np.ndarray:
        try:
            return self.source_currents[name]
        except KeyError:
            raise CircuitError(f"unknown voltage source {name!r}") from None


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


def transient_samples(
    system: MNASystem,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """March the system from its t=0 operating point; returns raw samples.

    The ``(n_steps + 1, size)`` matrix stacks the DC solution at t=0 and
    every accepted time step.  Each step runs plain Newton from the
    previous solution; a failed step is rescued through the adaptive
    continuation ladder anchored at the last accepted solution, and a
    rescue failure raises :class:`ConvergenceError` with the full
    ladder history.
    """
    n_steps = validate_grid(t_stop_s, dt_s, integrator)
    x = solve_dc(system, x0, time_s=0.0)

    samples = np.empty((n_steps + 1, system.size))
    samples[0] = x
    state: dict[str, float] = {}

    previous_x = np.array(x)
    for step in range(1, n_steps + 1):
        t = step * dt_s
        x_next, converged = newton_solve(
            system,
            previous_x,
            time_s=t,
            dt_s=dt_s,
            previous_x=previous_x,
            integrator=integrator,
            state=state,
        )
        if not converged:
            # Rescue the timestep through the adaptive continuation
            # ladder, anchored at the last accepted solution (the
            # companion model rides along in the eval kwargs).  The old
            # silent retry-from-zeros could hand back a wrong-branch
            # solution with no trace; now a failure raises with the
            # full ladder history.
            x_next, rescue = solve_dc_robust(
                system,
                previous_x,
                time_s=t,
                dt_s=dt_s,
                previous_x=previous_x,
                integrator=integrator,
                state=state,
            )
            if not rescue.converged:
                raise ConvergenceError(
                    f"transient Newton failed at t = {t:.3e} s", rescue
                )
        # Update trapezoidal history currents at the accepted solution.
        if integrator == "trapezoidal":
            system.update_capacitor_state(x_next, previous_x, dt_s, integrator, state)
        samples[step] = x_next
        previous_x = x_next
    return samples


def result_from_samples(
    system: MNASystem, samples: np.ndarray, dt_s: float
) -> TransientResult:
    """Name the columns of a raw sample matrix as waveforms."""
    circuit = system.circuit
    times = dt_s * np.arange(samples.shape[0])
    voltages = {
        node: samples[:, system.node_index(node)] for node in circuit.node_names
    }
    currents = {
        el.name: samples[:, el.branch_index]
        for el in circuit.elements
        if isinstance(el, VoltageSource)
    }
    return TransientResult(
        time_s=times, voltages=voltages, source_currents=currents
    )


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
    return result_from_samples(system, samples, dt_s)
