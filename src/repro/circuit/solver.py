"""Damped Newton solver for MNA systems.

The solver attacks F(x) = 0 with Newton iterations and a backtracking
line search on the residual norm.  Convergence is a single
relative+absolute test on the max-norm residual — the same criterion at
the main exit, on step stall and at iteration exhaustion, so
"converged" means one thing everywhere.

Cold-start robustness lives in :mod:`repro.circuit.continuation`:
:func:`solve_dc` delegates to its adaptive ladder (structural seeding,
adaptive gmin stepping, adaptive source ramping, pseudo-transient
continuation) and raises a diagnostics-carrying
:class:`~repro.circuit.continuation.ConvergenceError` when the ladder
is exhausted.

Linear algebra adapts to what the compiled stamp plan hands back: small
systems solve dense with an in-place diagonal regularization (no
per-iteration ``np.eye`` allocation), large systems arrive as
``scipy.sparse`` CSR matrices on the plan's canonical pattern and
refactorize numerically against the plan's one-time symbolic ordering
(:meth:`~repro.circuit.assembly.StampPlan.sparse_newton_step`).  Circuits
with no nonlinear devices skip refactorization entirely — the constant
linear matrix is LU-factorized once per ``(dt, integrator)`` key by the
stamp plan and every Newton step reuses the cached factors.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgesv

# Unused here; perfbench's tracer resolves ``solver.splu`` when it installs.
from scipy.sparse.linalg import splu  # noqa: F401

from repro.circuit.assembly import DIAG_REGULARIZATION as _DIAG_REGULARIZATION
from repro.circuit.netlist import MNASystem

__all__ = ["newton_solve", "solve_dc", "operating_point"]

_MAX_ITERATIONS = 120
_RESIDUAL_ATOL = 1e-10
_RESIDUAL_RTOL = 1e-9
_STEP_TOL = 1e-10
# Damping candidates evaluated per batched line-search call once the
# full step is rejected (total trial budget stays at 30, as before).
_TRIAL_BATCH = 8
_MAX_TRIALS = 30


def _newton_step(plan, jacobian, residual) -> np.ndarray | None:
    """Solve J step = -residual with a tiny diagonal regularization.

    Dense Jacobians get the regularization added to their diagonal in
    place — safe because the evaluation buffer is fully reassembled by
    the next ``evaluate`` call.  Sparse Jacobians route through
    :meth:`~repro.circuit.assembly.StampPlan.sparse_newton_step`, so the
    symbolic ordering is computed once and only the numeric
    factorization repeats per iteration.  Returns None on a singular
    matrix.
    """
    if plan.use_sparse:
        return plan.sparse_newton_step(jacobian, residual)
    diagonal = np.einsum("ii->i", jacobian)
    diagonal += _DIAG_REGULARIZATION
    # Same LAPACK dgesv as np.linalg.solve, minus the wrapper overhead;
    # -residual is a fresh temporary, so LAPACK may solve into it.
    _, _, step, info = dgesv(jacobian, -residual, overwrite_b=True)
    return step if info == 0 else None


def _line_search(
    system, plan, x, step, norm, tolerance, source_scale, gmin, eval_kwargs
):
    """First acceptable damped trial along ``step``; None if there is none.

    Trial 1 is the full step — evaluated alone because it is accepted
    in the vast majority of iterations.  Once it is rejected, the rest
    of the halving ladder runs through
    :meth:`~repro.circuit.assembly.StampPlan.evaluate_many` in batches
    of ``_TRIAL_BATCH``: one batched device ``linearize`` per call
    instead of one per trial, which is what makes backtracking cheap
    for expensive (physical) device models.  The first candidate of
    each batch that reduces the residual is accepted — the one a
    sequential halving ladder would have accepted.
    """
    x_trial = x + step
    residual_trial, jacobian_trial = system.evaluate(
        x_trial, source_scale=source_scale, gmin=gmin, **eval_kwargs
    )
    norm_trial = float(np.max(np.abs(residual_trial)))
    if norm_trial < norm or norm_trial <= tolerance:
        return x_trial, residual_trial, jacobian_trial, norm_trial, 1.0

    dampings = 0.5 ** np.arange(1, _MAX_TRIALS)
    for start in range(0, dampings.size, _TRIAL_BATCH):
        batch = dampings[start : start + _TRIAL_BATCH]
        x_trials = x[None, :] + batch[:, None] * step[None, :]
        residuals, jacobians = plan.evaluate_many(
            x_trials, source_scale=source_scale, gmin=gmin, **eval_kwargs
        )
        norms = np.max(np.abs(residuals), axis=1)
        hits = np.flatnonzero((norms < norm) | (norms <= tolerance))
        if hits.size:
            j = int(hits[0])
            jacobian = jacobians[j]
            if plan.use_sparse:
                jacobian = plan.sparse_schedule.matrix(jacobian)
            return (
                x_trials[j], residuals[j], jacobian, float(norms[j]), float(batch[j])
            )
    return None


def newton_solve(
    system: MNASystem,
    x0: np.ndarray,
    source_scale: float = 1.0,
    gmin: float = 0.0,
    report=None,
    stage: str = "newton",
    parameter: float | None = None,
    **eval_kwargs,
) -> tuple[np.ndarray, bool]:
    """Damped Newton from ``x0``; returns (solution, converged).

    Converged means ``norm <= _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm0``
    with ``norm0`` the residual at ``x0`` — evaluated identically at
    every exit.  When ``report`` (a
    :class:`~repro.circuit.continuation.ConvergenceReport`) is given,
    the attempt is recorded under ``stage``/``parameter`` with its
    iteration count and final residual.
    """
    x = np.array(x0, dtype=float)
    residual, jacobian = system.evaluate(
        x, source_scale=source_scale, gmin=gmin, **eval_kwargs
    )
    norm = float(np.max(np.abs(residual)))
    tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm
    iterations = 0

    # Linear-only circuits reuse the plan's cached LU of the constant
    # matrix instead of refactorizing the identical Jacobian every step.
    plan = system._plan
    linear_only = plan.linear_only and gmin == 0.0
    dt_s = eval_kwargs.get("dt_s")
    integrator = eval_kwargs.get("integrator", "trapezoidal")

    converged = norm <= tolerance
    while not converged and iterations < _MAX_ITERATIONS:
        if linear_only:
            step = plan.linear_step(residual, dt_s, integrator)
        else:
            step = _newton_step(plan, jacobian, residual)
        if step is None:
            break
        iterations += 1
        accepted = _line_search(
            system, plan, x, step, norm, tolerance, source_scale, gmin,
            eval_kwargs,
        )
        if accepted is None:
            break  # line search could not reduce the residual
        x, residual, jacobian, norm, damping = accepted
        converged = norm <= tolerance
        if float(np.max(np.abs(damping * step))) < _STEP_TOL:
            break  # stalled; the unified test above has the last word
    if report is not None:
        report.record(stage, parameter, iterations, norm, converged)
    return x, converged


def solve_dc(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> np.ndarray:
    """DC solution via the adaptive continuation ladder.

    Delegates to :func:`repro.circuit.continuation.solve_dc_robust`
    (structural seed -> Newton -> adaptive gmin -> adaptive source ramp
    -> pseudo-transient).  Raises
    :class:`~repro.circuit.continuation.ConvergenceError` — carrying the
    full :class:`~repro.circuit.continuation.ConvergenceReport` — when
    every strategy is exhausted.
    """
    from repro.circuit.continuation import ConvergenceError, solve_dc_robust

    x, report = solve_dc_robust(system, x0, **eval_kwargs)
    if not report.converged:
        raise ConvergenceError("DC solve failed: continuation ladder exhausted", report)
    return x


def operating_point(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> tuple[np.ndarray, np.ndarray | sparse.csr_matrix]:
    """Continuation-solved DC point and its detached small-signal G.

    The Jacobian the evaluator returns at the DC solution *is* the
    small-signal conductance matrix — the FET gm/gds stamps come from
    the device protocol's ``linearize`` (analytic for models that
    provide derivatives, central differences with the model-owned step
    otherwise), so no caller ever re-derives them by finite
    differences.  Dense compiled plans hand back a reused evaluation
    buffer, so the dense result is copied; sparse plans return the
    canonical-pattern CSR matrix, whose ``data`` vector is fresh per
    evaluation.  This is the one linearization the compiled AC path
    (:mod:`repro.circuit.ac`) performs per analysis.
    """
    x = solve_dc(system, x0, **eval_kwargs)
    _, jacobian = system.evaluate(x)
    if sparse.issparse(jacobian):
        return x, jacobian
    return x, np.array(jacobian)
