"""Per-instance scalar oracles of the batched circuit Monte Carlo engines.

Shared by ``tests/circuit/test_sweep.py``,
``tests/circuit/test_transient_mc.py`` and
``benchmarks/test_sweep_bench.py``, so the equivalence suites and the
benchmarks hold :class:`~repro.circuit.sweep.CircuitMonteCarlo` and
:class:`~repro.circuit.sweep.CircuitTransientMC` to the same reference:
the per-instance scalar loop the engines replace, run on explicitly
perturbed circuit clones.
"""

import numpy as np

from repro.circuit.continuation import solve_dc_robust
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    CircuitTransientMC,
    FETVariation,
    MonteCarloResult,
    perturbed_circuit,
)
from repro.circuit.transient import transient_samples, validate_grid


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
        x=x,
        converged=converged,
        node_index=engine.node_index,
        branch_index=engine.branch_index,
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
