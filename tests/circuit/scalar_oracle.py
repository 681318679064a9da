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
* :func:`sequential_sweep` — the DC sweep walked point by point, each
  point continued from the previous one and polished to machine
  precision over the reference evaluator: the reference of
  :func:`~repro.circuit.dc.dc_sweep`'s stacked rows (``test_dc.py``).
* :func:`fixpoint_seed` — the rescanning fixpoint form of the
  structural seeder, which the worklist
  :func:`~repro.circuit.continuation.structural_seed` must reproduce
  bitwise (``test_seed_oracle.py``).
* :func:`dc_scalar_reference` and :func:`transient_scalar_reference` —
  the per-instance scalar loop the Monte Carlo engines replace, run on
  explicitly perturbed circuit clones.  Shared by ``test_sweep.py``,
  ``test_transient_mc.py`` and ``benchmarks/test_sweep_bench.py``.
"""

import numpy as np

from repro.circuit.assembly import DIAG_REGULARIZATION, _unwrap_polarity
from repro.circuit.continuation import (
    _SEED_ON_FRACTION,
    solve_dc_robust,
    structural_seed,
)
from repro.circuit.elements import (
    FET,
    GROUND_NAMES,
    Capacitor,
    Resistor,
    StampContext,
    VoltageSource,
)
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
from repro.circuit.waveforms import DC


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


def polish(system: MNASystem, x, max_steps: int = 50):
    """Oracle: full Newton steps over the reference evaluator while they shrink.

    Stops at the first step that is not smaller than the one before,
    without taking it: the rounding floor of the solution near ``x``.
    """
    x = np.array(x, dtype=float)
    last = np.inf
    for _ in range(max_steps):
        residual, jacobian = system.evaluate_dense(x)
        jacobian[np.diag_indices(system.size)] += DIAG_REGULARIZATION
        step = np.linalg.solve(jacobian, -residual)
        size = float(np.max(np.abs(step)))
        if not size < last:
            break
        x, last = x + step, size
    return x


def sequential_sweep(circuit, source_name: str, values) -> np.ndarray:
    """Oracle: a DC sweep walked in order, each point from the previous one.

    The first point starts from the structural seed; each solve is
    :func:`sequential_newton`, rescued by the continuation ladder where
    it fails, then :func:`polish`-ed.  The swept source's waveform is
    swapped per point and restored afterwards.  Returns ``(len(values),
    size)`` samples.
    """
    system = circuit.build_system()
    source = circuit.source(source_name)
    original = source.waveform
    samples = []
    x = None
    try:
        for value in values:
            source.waveform = DC(float(value))
            start = structural_seed(system) if x is None else x
            x, converged = sequential_newton(system, start)
            if not converged:
                x, report = solve_dc_robust(system, start)
                assert report.converged, report.describe()
            x = polish(system, x)
            samples.append(x)
    finally:
        source.waveform = original
    return np.array(samples)


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


def fixpoint_seed(system: MNASystem, time_s: float | None = None) -> np.ndarray:
    """Oracle: the rescanning fixpoint form of :func:`structural_seed`.

    Each pass fires the first eligible rule and rescans every element
    from the start, so it costs O(N (N + E)); the production seed must
    match it bitwise on every input.

    Nodes pinned by voltage sources (evaluated at ``time_s``, or their DC
    level when ``None``) seed the propagation; FETs whose gate drive
    exceeds :data:`_SEED_ON_FRACTION` of the rail span act as closed
    switches copying the source rail onto an undriven drain, and
    resistors copy a known voltage onto an unknown neighbour.  Nodes the
    propagation cannot reach settle at mid-rail; branch currents start
    at zero.
    """
    circuit = system.circuit
    known: dict[str, float] = {}

    def get(node: str) -> float | None:
        if node in GROUND_NAMES:
            return 0.0
        return known.get(node)

    def put(node: str, value: float) -> bool:
        if node in GROUND_NAMES or node in known:
            return False
        known[node] = float(value)
        return True

    vsources = [el for el in circuit.elements if isinstance(el, VoltageSource)]
    fets = [el for el in circuit.elements if isinstance(el, FET)]
    resistors = [el for el in circuit.elements if isinstance(el, Resistor)]

    def pin_sources() -> bool:
        """Pin every node a source fixes from a known terminal (one pass)."""
        changed = False
        for el in vsources:
            vp, vn = get(el.p), get(el.n)
            if vp is None and vn is not None:
                changed |= put(el.p, vn + el.level(time_s))
            elif vn is None and vp is not None:
                changed |= put(el.n, vp - el.level(time_s))
        return changed

    # Pin source-determined nodes (fixpoint handles stacked sources).
    while pin_sources():
        pass

    rails = [0.0, *known.values()]
    v_lo, v_hi = min(rails), max(rails)
    span = v_hi - v_lo

    x = np.zeros(system.size)
    if span <= 0.0:
        for node, value in known.items():
            x[system.node_index(node)] = value
        return x

    # Switch-level propagation to a fixpoint.  Rules fire in priority
    # order — voltage sources (exact) > FET switches > resistor wires
    # (both heuristic) — and the heuristic sweeps stop after their
    # first assignment so the exact rules are re-checked before any
    # further guess: a source whose terminals only become known through
    # propagation is still pinned exactly, never left at mid-rail.
    threshold = _SEED_ON_FRACTION * span
    max_passes = system.n_nodes + len(circuit.elements) + 1
    for _ in range(max_passes):
        if pin_sources():
            continue
        changed = False
        for el in fets:
            vg, vs = get(el.gate), get(el.source)
            if vg is None or vs is None or get(el.drain) is not None:
                continue
            _, sign = _unwrap_polarity(el.device)
            if sign * (vg - vs) >= threshold and put(el.drain, vs):
                changed = True
                break
        if changed:
            continue
        for el in resistors:
            vp, vn = get(el.p), get(el.n)
            if vp is None and vn is not None:
                changed = put(el.p, vn)
            elif vn is None and vp is not None:
                changed = put(el.n, vp)
            if changed:
                break
        if not changed:
            break

    mid = v_lo + 0.5 * span
    for node in circuit.node_names:
        x[system.node_index(node)] = known.get(node, mid)
    return x
