"""CNT growth populations: chirality statistics of as-grown material.

Section V of the paper: "CNTs can come in different flavors and can be
semiconducting, metallic, semi-metallic and it is currently unproven
whether pure batches of one sort could be achieved."  This module models
the as-grown population: chiralities enumerated in a diameter window and
weighted by a diameter distribution (CVD growth is approximately Gaussian
in diameter and unselective in chiral angle), which reproduces the
textbook ~1/3 metallic : 2/3 semiconducting split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.physics.cnt import Chirality, enumerate_chiralities

__all__ = ["GrowthDistribution"]


@dataclass
class GrowthDistribution:
    """A diameter-Gaussian chirality population.

    Attributes
    ----------
    mean_diameter_nm, sigma_diameter_nm:
        Diameter distribution of the growth recipe (e.g. 1.5 +- 0.25 nm
        for typical CVD; ~0.8 nm for CoMoCAT-class recipes).
    diameter_window_nm:
        Hard truncation of the enumerated chirality set.
    """

    mean_diameter_nm: float = 1.5
    sigma_diameter_nm: float = 0.25
    diameter_window_nm: tuple[float, float] = (0.6, 2.6)
    _chiralities: list[Chirality] = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_diameter_nm <= 0.0 or self.sigma_diameter_nm <= 0.0:
            raise ValueError("diameter distribution parameters must be positive")
        lo, hi = self.diameter_window_nm
        self._chiralities = enumerate_chiralities(lo, hi)
        if not self._chiralities:
            raise ValueError(f"no chiralities in window [{lo}, {hi}] nm")
        diameters = np.array([c.diameter_nm for c in self._chiralities])
        weights = np.exp(
            -0.5 * ((diameters - self.mean_diameter_nm) / self.sigma_diameter_nm) ** 2
        )
        total = float(weights.sum())
        if total <= 0.0:
            raise ValueError("diameter window excludes all probability mass")
        self._weights = weights / total

    @property
    def chiralities(self) -> list[Chirality]:
        return list(self._chiralities)

    @property
    def probabilities(self) -> np.ndarray:
        return self._weights.copy()

    def semiconducting_fraction(self) -> float:
        """Probability that a grown tube is semiconducting (~2/3)."""
        mask = np.array([c.is_semiconducting for c in self._chiralities])
        return float(self._weights[mask].sum())
