"""Wafer-scale CNT placement models: aligned growth and solution deposition.

The paper's Section V describes the two integration routes and their
statistics:

* **Aligned growth on quartz** — atomic steps on miscut quartz guide CNTs
  during CVD growth into nearly parallel arrays (the route behind the
  Shulaker one-bit computers).  Modelled by a linear tube density and a
  Gaussian angular spread; a device of a given width then sees a
  Poisson-distributed tube count, and stray (badly misaligned) tubes can
  bridge adjacent devices.
* **Solution deposition into trenches** (Park et al., Nature Nano 7, 787
  (2012), paper Ref. [22]) — chemically functionalised trenches capture
  sorted CNTs from suspension; with >10,000 measurable FETs this gave the
  first large-sample CNT-FET statistics.  Modelled by Langmuir-like site
  filling: the number of tubes captured per site is Poisson with a mean
  set by concentration x time, so fill fraction = 1 - exp(-mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AlignedGrowth", "TrenchDeposition", "PlacementStatistics"]


@dataclass(frozen=True)
class PlacementStatistics:
    """Per-site outcome probabilities of a placement process."""

    p_empty: float
    p_single: float
    p_multiple: float
    p_misaligned: float

    def __post_init__(self) -> None:
        for name in ("p_empty", "p_single", "p_multiple", "p_misaligned"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    @property
    def p_usable(self) -> float:
        """Site hosts at least one tube and no misaligned stray."""
        return (self.p_single + self.p_multiple) * (1.0 - self.p_misaligned)


@dataclass(frozen=True)
class AlignedGrowth:
    """Quartz-guided aligned CNT growth.

    Attributes
    ----------
    density_per_um:
        Linear density of tubes across the growth direction [1/um].
    angular_sigma_deg:
        Standard deviation of tube orientation around the step direction.
    misalignment_threshold_deg:
        Orientation beyond which a tube counts as a stray (may short
        neighbouring devices).
    """

    density_per_um: float = 5.0
    angular_sigma_deg: float = 1.0
    misalignment_threshold_deg: float = 5.0

    def __post_init__(self) -> None:
        if self.density_per_um <= 0.0:
            raise ValueError("density must be positive")
        if self.angular_sigma_deg <= 0.0:
            raise ValueError("angular sigma must be positive")
        if self.misalignment_threshold_deg <= 0.0:
            raise ValueError("misalignment threshold must be positive")

    def expected_tubes(self, device_width_um: float) -> float:
        """Mean tube count crossing a device of the given width."""
        if device_width_um <= 0.0:
            raise ValueError("device width must be positive")
        return self.density_per_um * device_width_um

    def misaligned_fraction(self) -> float:
        """Fraction of tubes beyond the misalignment threshold (2-sided)."""
        z = self.misalignment_threshold_deg / self.angular_sigma_deg
        return float(math.erfc(z / math.sqrt(2.0)))

    def statistics(self, device_width_um: float) -> PlacementStatistics:
        """Poisson site statistics for devices of the given width."""
        mu = self.expected_tubes(device_width_um)
        p0 = math.exp(-mu)
        p1 = mu * p0
        stray = self.misaligned_fraction()
        # Probability that no stray tube crosses the site.
        p_any_stray = 1.0 - math.exp(-mu * stray)
        return PlacementStatistics(
            p_empty=p0,
            p_single=p1,
            p_multiple=max(1.0 - p0 - p1, 0.0),
            p_misaligned=p_any_stray,
        )


@dataclass(frozen=True)
class TrenchDeposition:
    """Langmuir-like capture of solution-sorted CNTs into trenches.

    ``mean_tubes_per_site`` = capture rate x concentration x time; the
    Park et al. experiment reached >90 % filled sites, i.e. mu ~ 2.5.
    """

    mean_tubes_per_site: float = 2.5

    def __post_init__(self) -> None:
        if self.mean_tubes_per_site <= 0.0:
            raise ValueError("mean tubes per site must be positive")

    def fill_fraction(self) -> float:
        """Fraction of sites holding at least one tube: 1 - exp(-mu)."""
        return 1.0 - math.exp(-self.mean_tubes_per_site)
