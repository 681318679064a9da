"""Post-growth sorting: purity-vs-yield models of CNT separation processes.

Section V's second integration route "refines the CNT usually with the
help of liquid suspension and tries to do large-scale single-chirality
separation of single-wall carbon nanotubes by gel chromatography, density
gradient or DNA methods."  Each pass of a separation process is modelled
as a binary classifier over the semiconducting/metallic label with a
selectivity ratio ``s``: a semiconducting tube is retained with
probability ``retain_semiconducting`` and a metallic one with
``retain_semiconducting / s``.  Purity then evolves as

    p' = p r_s / (p r_s + (1 - p) r_m),

and the usable material fraction multiplies down pass over pass — the
purity/yield trade-off that makes ultra-pure material expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SeparationProcess",
    "SortingResult",
    "GEL_CHROMATOGRAPHY",
    "DENSITY_GRADIENT",
    "DNA_SORTING",
    "passes_to_reach_purity",
]


@dataclass(frozen=True)
class SeparationProcess:
    """One sorting technology characterised by selectivity and retention."""

    name: str
    selectivity: float
    retain_semiconducting: float

    def __post_init__(self) -> None:
        if self.selectivity <= 1.0:
            raise ValueError(f"{self.name}: selectivity must exceed 1")
        if not 0.0 < self.retain_semiconducting <= 1.0:
            raise ValueError(f"{self.name}: retention must be in (0, 1]")

    @property
    def retain_metallic(self) -> float:
        return self.retain_semiconducting / self.selectivity

    def purity_after_pass(self, purity: float) -> float:
        """Semiconducting purity after one pass, given incoming ``purity``."""
        _check_probability("purity", purity)
        kept_semi = purity * self.retain_semiconducting
        kept_metal = (1.0 - purity) * self.retain_metallic
        total = kept_semi + kept_metal
        if total == 0.0:
            raise ValueError("separation pass retained no material")
        return kept_semi / total

    def yield_of_pass(self, purity: float) -> float:
        """Fraction of incoming material surviving one pass."""
        _check_probability("purity", purity)
        return purity * self.retain_semiconducting + (1.0 - purity) * self.retain_metallic


@dataclass(frozen=True)
class SortingResult:
    """Outcome of a multi-pass sorting run."""

    process: SeparationProcess
    purity: float
    cumulative_yield: float
    purity_history: tuple[float, ...]

    @property
    def n_passes(self) -> int:
        return len(self.purity_history) - 1

    @property
    def metallic_fraction(self) -> float:
        return 1.0 - self.purity

    def nines(self) -> float:
        """Purity expressed in "nines": -log10(metallic fraction)."""
        if self.purity >= 1.0:
            return math.inf
        return -math.log10(self.metallic_fraction)


# Representative technology presets (selectivity per pass, retention).
GEL_CHROMATOGRAPHY = SeparationProcess("gel chromatography", selectivity=200.0,
                                       retain_semiconducting=0.80)
DENSITY_GRADIENT = SeparationProcess("density gradient", selectivity=60.0,
                                     retain_semiconducting=0.70)
DNA_SORTING = SeparationProcess("DNA sorting", selectivity=1000.0,
                                retain_semiconducting=0.50)


def passes_to_reach_purity(
    process: SeparationProcess,
    target_purity: float,
    initial_purity: float = 2.0 / 3.0,
    max_passes: int = 50,
) -> SortingResult:
    """Run passes until ``target_purity`` is reached (raises if unreachable)."""
    _check_probability("target purity", target_purity)
    purity = initial_purity
    cumulative_yield = 1.0
    history = [purity]
    for _ in range(max_passes):
        if purity >= target_purity:
            break
        cumulative_yield *= process.yield_of_pass(purity)
        purity = process.purity_after_pass(purity)
        history.append(purity)
    else:
        raise ValueError(
            f"{process.name} cannot reach purity {target_purity} in {max_passes} passes"
        )
    return SortingResult(
        process=process,
        purity=purity,
        cumulative_yield=cumulative_yield,
        purity_history=tuple(history),
    )


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
