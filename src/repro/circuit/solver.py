"""Damped Newton solver for MNA systems.

:func:`newton_many` is the one damped-Newton iteration in the package,
on an ``(m, size)`` stack of iterates: :func:`newton_solve` is its
one-row call, and the continuation ladder
(:func:`repro.circuit.continuation.ladder_many`) and the time-step loop
(:mod:`repro.circuit.transient`) call it with one row per instance;
:func:`settle_many` follows it with a polish to machine precision for
the DC sweep's rows.  Convergence is a single relative+absolute test
on the max-norm residual — the same criterion at the main exit, on
step stall and at iteration exhaustion, so "converged" means one thing
everywhere.
The line search halves the damping: each round evaluates one
candidate per pending row in one
:meth:`~repro.circuit.assembly.StampPlan.evaluate_many` call and
accepts the first candidate that reduces the row's residual — the one
a sequential halving ladder would accept.

Linear algebra follows the compiled stamp plan: dense Jacobian stacks,
a single row included, solve in one batched ``np.linalg.solve`` call,
and sparse ``(m, nnz)`` stacks refactorize each row numerically against
the plan's one-time symbolic ordering.  Linear circuits take the same
path.  Nothing here imports scipy: sparse plans bring it in through
:mod:`repro.circuit.assembly`.

Cold-start robustness lives in :mod:`repro.circuit.continuation`:
:func:`solve_dc` delegates to its ladder (structural seeding, plain
Newton, then pseudo-transient continuation) and raises a
diagnostics-carrying
:class:`~repro.circuit.continuation.ConvergenceError` when the ladder
is exhausted.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

import numpy as np

from repro.circuit.assembly import DIAG_REGULARIZATION
from repro.circuit.netlist import MNASystem

__all__ = [
    "NewtonRows",
    "newton_many",
    "newton_solve",
    "settle_many",
    "solve_dc",
    "take_rows",
]

_MAX_ITERATIONS = 120
_RESIDUAL_ATOL = 1e-10
_RESIDUAL_RTOL = 1e-9
_STEP_TOL = 1e-10
_MAX_TRIALS = 30
# Cap on settle_many's polish steps: from the damped loop's stopping
# point, quadratic convergence reaches the rounding floor in ~3.
_MAX_POLISH_STEPS = 8

# The scipy modules of the names :func:`__getattr__` binds on first access.
_SCIPY = {"dgesv": "scipy.linalg.lapack", "splu": "scipy.sparse.linalg"}


def __getattr__(name: str):
    """Import ``dgesv``/``splu`` on first access and keep them here (PEP 562).

    The Newton solve uses neither; perfbench's tracer wraps both names
    in this module, and the hook lets it find them without loading
    scipy into every process that imports the solver.
    """
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY[name]), name)
    globals()[name] = value
    return value


# Evaluation keywords that may carry one value per row, by the ndim
# of their per-row form (shared values have one dimension less).
_ROW_NDIM = {
    "previous_x": 2, "state": 2, "gmin_ref": 2, "gmin": 1, "source_levels": 2
}


class NewtonRows(NamedTuple):
    """Per-row outcome of :func:`newton_many`."""

    x: np.ndarray  # (m, size) final iterates
    converged: np.ndarray  # (m,) bool
    iterations: np.ndarray  # (m,) Newton steps taken
    norm: np.ndarray  # (m,) final max-norm residuals
    # Per FET group, (3, m, count) device outputs at ``x``; None unless
    # the caller passed ``linearized``.
    linearized: list | None = None


def take_rows(eval_kwargs: dict, rows: np.ndarray) -> dict:
    """The evaluation keywords of stack rows ``rows``.

    ``variation`` and the per-row arrays (``previous_x``, ``state``,
    ``gmin_ref``, ``gmin``, ``source_levels``) are narrowed to
    ``rows``; shared values pass through.
    """
    kwargs = dict(eval_kwargs)
    for key, value in eval_kwargs.items():
        if key == "variation":
            kwargs[key] = None if value is None else value.take(rows)
        elif isinstance(value, np.ndarray) and value.ndim == _ROW_NDIM.get(key):
            kwargs[key] = value[rows]
    return kwargs


def _solve_stack(plan, jacobians, residuals):
    """Regularized Newton steps for a row stack; NaN rows where none exists.

    ``jacobians`` is regularized in place (the caller replaces a row
    before reading it again).  Dense stacks, a single row included,
    solve in one batched ``np.linalg.solve`` call; a stack with a
    singular member retries row by row, and each singular row gets NaN.
    Sparse rows refactorize one by one against the plan's one-time
    symbolic ordering.
    """
    steps = np.empty_like(residuals)
    if plan.use_sparse:
        jacobians[:, plan.sparse_schedule.diag_pos] += DIAG_REGULARIZATION
        for i, (jacobian, residual) in enumerate(zip(jacobians, residuals)):
            solve = plan.sparse_schedule.factor(jacobian)
            steps[i] = np.nan if solve is None else solve(-residual)
        return steps
    np.einsum("ijj->ij", jacobians)[...] += DIAG_REGULARIZATION
    try:
        # RHS as (k, size, 1) column matrices: the batched-solve
        # gufunc otherwise misreads a (k, size) stack as one matrix.
        return np.linalg.solve(jacobians, -residuals[:, :, None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    for i, (jacobian, residual) in enumerate(zip(jacobians, residuals)):
        try:
            steps[i] = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError:
            steps[i] = np.nan
    return steps


def newton_many(
    plan,
    x0: np.ndarray,
    *,
    max_iterations: int = _MAX_ITERATIONS,
    linearized: list | None = None,
    **eval_kwargs,
) -> NewtonRows:
    """Damped Newton on every row of the ``(m, size)`` stack ``x0``.

    Row ``i`` converges when ``norm <= _RESIDUAL_ATOL + _RESIDUAL_RTOL *
    norm0`` with ``norm0`` its residual at ``x0[i]``; a row whose
    ``norm0`` is not finite never converges.  Rows leave the
    working set as they converge, stall (step below ``_STEP_TOL``), hit
    a singular Jacobian or a non-finite step, or find no
    residual-reducing damping, so late iterations pay only for the
    stragglers.  ``max_iterations`` caps the Newton steps.

    ``eval_kwargs`` follow
    :meth:`~repro.circuit.assembly.StampPlan.evaluate_many`:
    ``previous_x``/``gmin_ref`` ``(m, size)``, ``state`` ``(m,
    n_caps)``, ``gmin`` ``(m,)`` and ``source_levels`` ``(m,
    n_vsources)`` (each row's voltage-source levels) are per row, like
    ``variation`` (a :class:`~repro.circuit.sweep.FETVariation` with
    ``m`` rows); :func:`take_rows` narrows them.  Every
    step is elementwise per row, so a row's result does not depend on
    its neighbours; a lone dense row takes the same batched
    ``np.linalg.solve`` call as a stack (the chunk-size suites hold the
    two bitwise equal).

    ``linearized`` asks for the device outputs: a list with one entry
    per FET group, each the ``(3, m, count)`` ``(id, gm, gds)`` at
    ``x0`` (carried from a call that ended there, and then not
    recomputed) or None.  Each row's outputs at its final iterate come
    back in ``NewtonRows.linearized``; they travel with the iterate
    through the line search, so they are the ones its last evaluation
    made.  The call takes ownership: it fills the None entries of the
    list and writes the outputs into its arrays, and returns that list.
    The time-step loop is the one caller: a step starts where the
    previous one ended.
    """
    return _newton(plan, x0, max_iterations, eval_kwargs, linearized)[0]


def settle_many(plan, x0: np.ndarray, **eval_kwargs) -> NewtonRows:
    """:func:`newton_many`, then polish every converged row to machine precision.

    The damped loop stops at ``norm <= _RESIDUAL_ATOL + _RESIDUAL_RTOL *
    norm0``; near a high-gain point that residual can be a large voltage
    error (~1e-3 V at the Si trigate inverter's switching point at
    0.4 V), so where a row stops would depend on where it started.  Each converged row here keeps
    taking full Newton steps while every step is smaller than the one
    before, and stops, without taking it, at the first step that does
    not shrink: the rounding floor, where the answer no longer depends
    on ``x0``.  The polish runs on the converged rows as one stack,
    each row leaving as it settles, and a polished row must still pass
    the damped loop's residual test or it counts as unconverged.
    ``iterations`` includes the polish steps; ``eval_kwargs`` follow
    :func:`newton_many`, and so does the per-row independence.  A row
    the damped loop does not converge is returned as :func:`newton_many`
    returns it, so it can enter the continuation ladder after its
    plain-Newton rung (:func:`~repro.circuit.continuation.ptc_many`).
    """
    rows, tolerance = _newton(plan, x0, _MAX_ITERATIONS, eval_kwargs, None)
    x, iterations, norm = rows.x, rows.iterations, rows.norm
    active = rows.converged.nonzero()[0]
    last_step = np.full(x.shape[0], np.inf)
    for n in range(_MAX_POLISH_STEPS + 1):
        if not active.size:
            break
        residual, jacobian = plan.evaluate_many(
            x[active], **take_rows(eval_kwargs, active)
        )
        norm[active] = np.abs(residual).max(axis=1)
        if n == _MAX_POLISH_STEPS:
            break
        step = _solve_stack(plan, jacobian, residual)
        step_norm = np.abs(step).max(axis=1)
        shrinks = step_norm < last_step[active]  # False for a NaN step
        active = active[shrinks]
        x[active] += step[shrinks]
        last_step[active] = step_norm[shrinks]
        iterations[active] += 1
    return NewtonRows(x, norm <= tolerance, iterations, norm)


def _newton(plan, x0, max_iterations: int, eval_kwargs: dict, lin_out):
    """The damped loop of :func:`newton_many`; also returns each row's tolerance.

    With ``lin_out`` (the ``linearized`` list), the device outputs of
    each working row (``lin``, per FET group ``(3, k, count)``) move
    with its iterate, and ``lin_out`` ends at every row's final iterate.
    """
    x_out = np.array(x0, dtype=float)
    m = x_out.shape[0]
    residual, jacobian = plan.evaluate_many(
        x_out, linearized=lin_out, **eval_kwargs
    )
    norm_out = np.abs(residual).max(axis=1)
    tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm_out
    # A non-finite start gets a NaN tolerance, which no norm is above or
    # within: the row leaves unconverged before the first step.
    tolerance[~np.isfinite(tolerance)] = np.nan
    iterations = np.zeros(m, dtype=int)
    # The working set: input rows ``idx`` and their compacted state.
    idx = (norm_out > tolerance).nonzero()[0]

    def result():
        rows = NewtonRows(x_out, norm_out <= tolerance, iterations, norm_out, lin_out)
        return rows, tolerance

    if not idx.size:
        return result()
    lin = None if lin_out is None else [a[:, idx] for a in lin_out]
    if idx.size == m:
        x, norm, tol = x_out.copy(), norm_out.copy(), tolerance
    else:
        x, residual, jacobian = x_out[idx], residual[idx], jacobian[idx]
        norm, tol = norm_out[idx], tolerance[idx]

    def evaluate(x_rows, rows):
        """Evaluate at ``x_rows``, the iterates of working rows ``rows``.

        Returns the residuals, the Jacobians and the device outputs
        (None unless they are carried).
        """
        kwargs = eval_kwargs if rows.size == m else take_rows(eval_kwargs, idx[rows])
        lin_rows = None if lin is None else [None] * len(lin)
        return (*plan.evaluate_many(x_rows, linearized=lin_rows, **kwargs), lin_rows)

    def retire(leave, steps_taken):
        """Write the leaving rows' final state out; compact the rest."""
        nonlocal idx, x, residual, jacobian, norm, tol, lin
        stay = ~leave
        gone = idx[leave]
        x_out[gone], norm_out[gone] = x[leave], norm[leave]
        iterations[gone] = steps_taken
        if lin is not None:
            for a_out, a in zip(lin_out, lin):
                a_out[:, gone] = a[:, leave]
        if not stay.any():
            idx = idx[:0]
            return stay
        idx, x, residual, jacobian = idx[stay], x[stay], residual[stay], jacobian[stay]
        norm, tol = norm[stay], tol[stay]
        if lin is not None:
            lin = [a[:, stay] for a in lin]
        return stay

    for n in range(1, max_iterations + 1):
        step = _solve_stack(plan, jacobian, residual)
        step_norm = np.abs(step).max(axis=1)
        solved = np.isfinite(step_norm)
        if np.count_nonzero(solved) < idx.size:
            # Singular or non-finite rows leave unconverged.
            stay = retire(~solved, n - 1)
            step, step_norm = step[stay], step_norm[stay]
            if not idx.size:
                break

        # Backtracking line search: one halving candidate per pending
        # row per round, every pending row at the same damping.  The
        # pending rows are ``rows`` of the working set, starting at
        # ``base`` with residual norms ``norm_p``.  A trial is accepted
        # when it reduces the norm (working rows are above tolerance,
        # so this also takes any trial that reaches tolerance).
        k = idx.size
        rows, base, norm_p = np.arange(k), x, norm
        damping = 1.0
        moving = np.zeros(k, dtype=bool)
        for _ in range(_MAX_TRIALS):
            x_trial = base + damping * step
            r_trial, j_trial, lin_trial = evaluate(x_trial, rows)
            n_trial = np.abs(r_trial).max(axis=1)
            ok = n_trial < norm_p
            hits = np.count_nonzero(ok)
            if hits == k:
                x, residual, jacobian, norm = x_trial, r_trial, j_trial, n_trial
                lin = lin_trial
                moving = damping * step_norm >= _STEP_TOL
                break
            if hits:
                sel = rows[ok]
                x[sel] = x_trial[ok]
                residual[sel] = r_trial[ok]
                jacobian[sel] = j_trial[ok]
                norm[sel] = n_trial[ok]
                if lin is not None:
                    for a, a_trial in zip(lin, lin_trial):
                        a[:, sel] = a_trial[:, ok]
                # A row whose accepted step stalled below _STEP_TOL stops.
                moving[sel] = damping * step_norm[ok] >= _STEP_TOL
                if hits == rows.size:
                    break
                miss = ~ok
                rows, base, step = rows[miss], base[miss], step[miss]
                norm_p, step_norm = norm_p[miss], step_norm[miss]
            damping *= 0.5

        # Rows that converged, stalled or found no damping leave.
        keep = moving & (norm > tol)
        if np.count_nonzero(keep) < k:
            retire(~keep, n)
            if not idx.size:
                break
    if idx.size:
        # Out of iterations: the stragglers leave unconverged.
        retire(np.ones(idx.size, dtype=bool), max_iterations)
    return result()


def newton_solve(
    system: MNASystem, x0: np.ndarray, **eval_kwargs
) -> tuple[np.ndarray, bool]:
    """Damped Newton from ``x0``; returns (solution, converged).

    The one-row call of :func:`newton_many`.
    """
    rows = newton_many(
        system._plan, np.asarray(x0, dtype=float)[None], **eval_kwargs
    )
    return rows.x[0], bool(rows.converged[0])


def solve_dc(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> np.ndarray:
    """DC solution via the continuation ladder.

    Delegates to :func:`repro.circuit.continuation.solve_dc_robust`
    (structural seed -> Newton -> pseudo-transient).  Raises
    :class:`~repro.circuit.continuation.ConvergenceError` — carrying the
    full :class:`~repro.circuit.continuation.ConvergenceReport` — when
    pseudo-transient continuation is exhausted.
    """
    from repro.circuit.continuation import ConvergenceError, solve_dc_robust

    x, report = solve_dc_robust(system, x0, **eval_kwargs)
    if not report.converged:
        raise ConvergenceError("DC solve failed: continuation ladder exhausted", report)
    return x
