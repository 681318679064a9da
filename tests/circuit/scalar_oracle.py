"""Scalar oracles of the circuit solvers and the batched engines.

Two kinds of reference live here:

* :func:`sequential_newton` and :func:`sequential_march` — an
  independent damped Newton and time-step loop, written over the
  element-walking reference evaluator
  :meth:`~repro.circuit.netlist.MNASystem.evaluate_dense` with a
  one-trial-at-a-time halving ladder and a dict of companion state.
  They share no iteration code with :mod:`repro.circuit.solver` or
  :mod:`repro.circuit.transient`, so the production loops are checked
  against something other than themselves (``test_solver.py``,
  ``test_march_oracle.py``).
* :func:`dc_scalar_reference` and :func:`transient_scalar_reference` —
  the per-instance scalar loop the Monte Carlo engines replace, run on
  explicitly perturbed circuit clones.  Shared by ``test_sweep.py``,
  ``test_transient_mc.py`` and ``benchmarks/test_sweep_bench.py``.
"""

import numpy as np

from repro.circuit.assembly import DIAG_REGULARIZATION
from repro.circuit.continuation import solve_dc_robust, structural_seed
from repro.circuit.elements import Capacitor, StampContext
from repro.circuit.netlist import MNASystem
from repro.circuit.solver import (
    _MAX_ITERATIONS,
    _MAX_TRIALS,
    _RESIDUAL_ATOL,
    _RESIDUAL_RTOL,
    _STEP_TOL,
)
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    CircuitTransientMC,
    FETVariation,
    MonteCarloResult,
    perturbed_circuit,
)
from repro.circuit.transient import transient_samples, validate_grid


def sequential_newton(system: MNASystem, x0, **eval_kwargs):
    """Oracle: damped Newton with a one-trial-at-a-time halving ladder.

    Written over the element-walking reference evaluator and a dense
    solve, independent of the stamp plan, its batched kernel and the
    production Newton loop; same convergence criterion, trial budget
    and step-stall exit as the production solver.  ``eval_kwargs`` go
    to :meth:`~repro.circuit.netlist.MNASystem.evaluate_dense`.
    Returns ``(x, converged)``.
    """
    x = np.array(x0, dtype=float)
    residual, jacobian = system.evaluate_dense(x, **eval_kwargs)
    norm = float(np.max(np.abs(residual)))
    tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm
    converged = norm <= tolerance
    iterations = 0
    while not converged and iterations < _MAX_ITERATIONS:
        jacobian[np.diag_indices(system.size)] += DIAG_REGULARIZATION
        step = np.linalg.solve(jacobian, -residual)
        iterations += 1
        damping = 1.0
        for _ in range(_MAX_TRIALS):
            x_trial = x + damping * step
            residual_trial, jacobian_trial = system.evaluate_dense(
                x_trial, **eval_kwargs
            )
            norm_trial = float(np.max(np.abs(residual_trial)))
            if norm_trial < norm or norm_trial <= tolerance:
                break
            damping *= 0.5
        else:
            break
        x, residual, jacobian, norm = x_trial, residual_trial, jacobian_trial, norm_trial
        converged = norm <= tolerance
        if float(np.max(np.abs(damping * step))) < _STEP_TOL:
            break
    return x, converged


def sequential_march(
    system: MNASystem, t_stop_s: float, dt_s: float, integrator: str = "trapezoidal"
) -> np.ndarray:
    """Oracle: the time-step loop, one step and one trial at a time.

    The t=0 point is :func:`sequential_newton` from the structural seed
    (the production paths' starting point); every step runs
    :func:`sequential_newton` from the previous solution with a dict of
    capacitor history currents, refreshed element by element through
    :meth:`~repro.circuit.elements.Capacitor.update_state` after each
    accepted trapezoidal step.  Raises ``AssertionError``
    when a solve fails.  Returns ``(n_steps + 1, size)`` samples.
    """
    n_steps = validate_grid(t_stop_s, dt_s, integrator)
    x, converged = sequential_newton(
        system, structural_seed(system, time_s=0.0), time_s=0.0
    )
    assert converged, "oracle t=0 solve failed"
    samples = [x]
    state: dict[str, float] = {}
    for step in range(1, n_steps + 1):
        time_s = step * dt_s
        x_next, converged = sequential_newton(
            system,
            x,
            time_s=time_s,
            dt_s=dt_s,
            previous_x=x,
            integrator=integrator,
            state=state,
        )
        assert converged, f"oracle step failed at t = {time_s:.3e} s"
        if integrator == "trapezoidal":
            ctx = StampContext(
                system=system, x=x_next, residual=None, jacobian=None,
                dt_s=dt_s, previous_x=x, integrator=integrator, state=state,
            )
            state = {
                el.name: el.update_state(ctx)
                for el in system.circuit.elements
                if isinstance(el, Capacitor)
            }
        samples.append(x_next)
        x = x_next
    return np.array(samples)


def dc_scalar_reference(
    engine: CircuitMonteCarlo, variation: FETVariation
) -> MonteCarloResult:
    """Oracle: every DC instance solved alone.

    Solves every instance through the full continuation ladder
    (:func:`~repro.circuit.continuation.solve_dc_robust`) on an
    explicitly perturbed clone of the circuit — the reference side of
    the batched-vs-scalar equivalence suites and the baseline the
    sparse-MC benchmark measures speedup against.
    """
    variation = engine._check_variation(variation, None)
    m = variation.n_instances
    x = np.empty((m, engine.plan.size))
    converged = np.zeros(m, dtype=bool)
    for i in range(m):
        system = perturbed_circuit(engine.circuit, variation, i).build_system()
        x[i], report = solve_dc_robust(system)
        converged[i] = report.converged
    return MonteCarloResult(
        layout=engine.system.layout, samples=x, converged=converged
    )


def transient_scalar_reference(
    engine: CircuitTransientMC,
    variation: FETVariation,
    t_stop_s: float,
    dt_s: float,
    integrator: str = "trapezoidal",
) -> np.ndarray:
    """Oracle: every transient instance integrated alone.

    Integrates every instance through :func:`repro.circuit.transient.
    transient_samples` on an explicitly perturbed circuit clone;
    raises :class:`~repro.circuit.continuation.ConvergenceError` if
    any instance fails.  Returns ``(n_instances, n_steps + 1, size)``.
    """
    variation = engine._check_variation(variation, None)
    n_steps = validate_grid(t_stop_s, dt_s, integrator)
    out = np.empty((variation.n_instances, n_steps + 1, engine.plan.size))
    for i in range(variation.n_instances):
        system = perturbed_circuit(engine.circuit, variation, i).build_system()
        out[i] = transient_samples(system, t_stop_s, dt_s, integrator)
    return out
