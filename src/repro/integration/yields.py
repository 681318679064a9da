"""Circuit-level yield models: metallic shorts, removal, redundancy.

Connects the material statistics to the paper's end point — Shulaker's
one-bit CNT computer (Nature 501, 526 (2013), Ref. [20]), 178 CNT-FETs
that worked because the flow was *imperfection-immune*: metallic CNTs
are removed electrically (VMR: the paper's reference flow switches
semiconducting tubes off and burns the conducting metallic ones), and
the logic style tolerates missing tubes.

The model:

* a gate fails "short" if any metallic tube survives removal,
* a gate fails "open" if removal (or placement) leaves no tube at all,
* circuit yield is the product over gates, optionally boosted by
  k-of-n redundancy at the gate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GateYieldModel",
    "CircuitYield",
    "circuit_yield",
    "shulaker_computer_yield",
    "purity_required_for_yield",
]


@dataclass(frozen=True)
class GateYieldModel:
    """Per-gate failure statistics from tube-level probabilities.

    Attributes
    ----------
    semiconducting_purity:
        Post-sorting probability that a tube is semiconducting.
    tubes_per_gate:
        Mean tube count under a gate (Poisson).
    removal_efficiency:
        Probability that a metallic tube is eliminated by VMR/burn-off.
    tube_survival:
        Probability a *semiconducting* tube survives processing (the VMR
        step also costs some good tubes).
    """

    semiconducting_purity: float = 0.99
    tubes_per_gate: float = 5.0
    removal_efficiency: float = 0.999
    tube_survival: float = 0.95

    def __post_init__(self) -> None:
        for name in ("semiconducting_purity", "removal_efficiency", "tube_survival"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.tubes_per_gate <= 0.0:
            raise ValueError("tubes per gate must be positive")

    @property
    def residual_metallic_rate(self) -> float:
        """Mean surviving metallic tubes per gate."""
        return self.tubes_per_gate * (1.0 - self.semiconducting_purity) * (
            1.0 - self.removal_efficiency
        )

    @property
    def p_short(self) -> float:
        """P(>= 1 surviving metallic tube) = 1 - exp(-rate)."""
        return 1.0 - math.exp(-self.residual_metallic_rate)

    @property
    def p_open(self) -> float:
        """P(no functional semiconducting tube remains)."""
        good_rate = self.tubes_per_gate * self.semiconducting_purity * self.tube_survival
        return math.exp(-good_rate)

    @property
    def gate_yield(self) -> float:
        """P(gate functional) = P(no short) * P(not open)."""
        return (1.0 - self.p_short) * (1.0 - self.p_open)


@dataclass(frozen=True)
class CircuitYield:
    """Yield summary of a circuit of identical gates."""

    n_gates: int
    gate_yield: float
    circuit_yield: float
    expected_failures: float


def circuit_yield(
    gate_model: GateYieldModel, n_gates: int, redundancy: int = 1
) -> CircuitYield:
    """Yield of an ``n_gates`` circuit, optionally with n-way gate sparing.

    ``redundancy`` = r means each logical gate is implemented r times and
    works if any copy works (idealised sparing; routing overhead ignored).
    """
    if n_gates < 1:
        raise ValueError(f"gate count must be >= 1, got {n_gates}")
    if redundancy < 1:
        raise ValueError(f"redundancy must be >= 1, got {redundancy}")
    per_gate = gate_model.gate_yield
    effective = 1.0 - (1.0 - per_gate) ** redundancy
    total = effective**n_gates
    return CircuitYield(
        n_gates=n_gates,
        gate_yield=effective,
        circuit_yield=total,
        expected_failures=n_gates * (1.0 - effective),
    )


SHULAKER_TRANSISTOR_COUNT = 178
"""CNT-FET count of the Shulaker one-bit computer (Nature 501, 526)."""


def shulaker_computer_yield(
    semiconducting_purity: float,
    removal_efficiency: float = 0.999,
    tubes_per_gate: float = 10.0,
    redundancy: int = 1,
) -> CircuitYield:
    """Yield of a 178-transistor CNT computer at the given material quality."""
    model = GateYieldModel(
        semiconducting_purity=semiconducting_purity,
        tubes_per_gate=tubes_per_gate,
        removal_efficiency=removal_efficiency,
    )
    return circuit_yield(model, SHULAKER_TRANSISTOR_COUNT, redundancy=redundancy)


def purity_required_for_yield(
    target_yield: float,
    n_gates: int,
    tubes_per_gate: float = 5.0,
    removal_efficiency: float = 0.0,
) -> float:
    """Semiconducting purity needed for a target circuit yield (shorts only).

    Inverts Y = exp(-N * n_t * (1-p) * (1-eps)); ignores opens, so the
    result is the *minimum* purity requirement.  This is the quantitative
    form of the paper's point that wafer-scale CNT logic needs purity
    levels far beyond as-grown 2/3.
    """
    if not 0.0 < target_yield < 1.0:
        raise ValueError(f"target yield must be in (0, 1), got {target_yield}")
    if n_gates < 1 or tubes_per_gate <= 0.0:
        raise ValueError("invalid circuit description")
    if not 0.0 <= removal_efficiency < 1.0:
        raise ValueError("removal efficiency must be in [0, 1)")
    metallic_budget = -math.log(target_yield) / (
        n_gates * tubes_per_gate * (1.0 - removal_efficiency)
    )
    return max(0.0, 1.0 - metallic_budget)
