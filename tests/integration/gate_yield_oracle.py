"""Tube-by-tube Monte Carlo of gate fabrication: the yield model's reference.

:class:`repro.integration.yields.GateYieldModel` gives per-gate short,
open and functional probabilities in closed form (Poisson thinning).
This module fabricates gates one tube at a time through the sweep
engine, so the tests can hold the closed form to the sampled fractions.
Only tests import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.sweep import ExecutionPolicy, SweepPlan, ensure_seed
from repro.integration.yields import GateYieldModel


@dataclass(frozen=True)
class MonteCarloGateYield:
    """Sampled per-gate failure statistics (cross-check of the analytic model)."""

    n_gates: int
    n_shorted: int
    n_open: int
    n_functional: int

    @property
    def p_short(self) -> float:
        return self.n_shorted / self.n_gates

    @property
    def p_open(self) -> float:
        return self.n_open / self.n_gates

    @property
    def gate_yield(self) -> float:
        return self.n_functional / self.n_gates


def _sample_gate_block(params_block, rng, model: GateYieldModel):
    """Vectorised block kernel: fabricate ``len(params_block)`` gates.

    Per gate: Poisson tube count, binomial metallic split, binomial
    VMR survival of metallic tubes and processing survival of
    semiconducting tubes — the sampled counterpart of the closed-form
    ``p_short``/``p_open`` Poisson-thinning arithmetic.
    """
    count = len(params_block)
    n_tubes = rng.poisson(model.tubes_per_gate, size=count)
    n_metallic = rng.binomial(n_tubes, 1.0 - model.semiconducting_purity)
    surviving_metallic = rng.binomial(n_metallic, 1.0 - model.removal_efficiency)
    surviving_good = rng.binomial(n_tubes - n_metallic, model.tube_survival)
    rows = np.empty((count, 2), dtype=bool)
    rows[:, 0] = surviving_metallic > 0  # shorted
    rows[:, 1] = surviving_good == 0  # open
    return rows


def _gate_entry_validator(entry) -> bool:
    """Merge-boundary schema of one gate row: ``(shorted, open)`` booleans."""
    return (
        isinstance(entry, np.ndarray)
        and entry.shape == (2,)
        and entry.dtype == np.bool_
    )


def monte_carlo_gate_yield(
    gate_model: GateYieldModel,
    n_gates: int = 10000,
    seed: int | None = 0,
    policy: ExecutionPolicy | None = None,
) -> MonteCarloGateYield:
    """Fabricate ``n_gates`` gates tube-by-tube through the sweep engine.

    The sampled short/open/functional fractions converge on the
    analytic :class:`GateYieldModel` properties; like every engine-run
    Monte Carlo, the result depends only on ``seed`` and ``n_gates``,
    not on the ``policy``'s chunking or worker count.
    """
    if n_gates < 1:
        raise ValueError("need at least one gate")
    sweep = SweepPlan(
        _sample_gate_block,
        vectorized=True,
        payload=gate_model,
        validate=_gate_entry_validator,
    )
    rows = np.asarray(
        sweep.run(range(n_gates), seed=ensure_seed(seed), policy=policy)
    )
    shorted = rows[:, 0]
    opened = rows[:, 1]
    return MonteCarloGateYield(
        n_gates=n_gates,
        n_shorted=int(np.count_nonzero(shorted)),
        n_open=int(np.count_nonzero(opened)),
        n_functional=int(np.count_nonzero(~shorted & ~opened)),
    )
