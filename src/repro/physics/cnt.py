"""Single-walled carbon-nanotube geometry and zone-folded band structure.

A SWCNT is indexed by its chirality ``(n, m)``.  Rolling up graphene
quantises the transverse wavevector; within the nearest-neighbour
linearised (Dirac-cone) picture the allowed cutting lines sit at distances

    dk_q = (2 / (3 d)) * |3 q + nu|,   nu = (n - m) mod 3 mapped to {0, +-1}

from the K point, giving subband edges

    E_q = a_cc * gamma0 / d * |3 q + nu|        (energies above midgap).

A tube is metallic when nu = 0 (one cutting line passes through K) and
semiconducting otherwise, with gap E_g = 2 a_cc gamma0 / d ~ 0.85 eV nm / d.
Trigonal warping and curvature-induced mini-gaps are neglected; this is the
same level of theory used by the compact CNT-FET models the paper cites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.physics.bands import BandStructure1D, Subband
from repro.physics.constants import A_CC_NM, A_LATTICE_NM, GAMMA0_EV, VFERMI

CNT_DEGENERACY = 4
"""Spin x valley degeneracy of each CNT subband."""


@dataclass(frozen=True)
class Chirality:
    """Chiral indices (n, m) of a single-walled carbon nanotube."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 0:
            raise ValueError(f"invalid chirality ({self.n}, {self.m}); need n >= 1, m >= 0")
        if self.m > self.n:
            raise ValueError(
                f"chirality ({self.n}, {self.m}) not in canonical form (m <= n)"
            )

    @property
    def diameter_nm(self) -> float:
        """Tube diameter d = a sqrt(n^2 + n m + m^2) / pi [nm]."""
        n, m = self.n, self.m
        return A_LATTICE_NM * math.sqrt(n * n + n * m + m * m) / math.pi

    @property
    def family(self) -> int:
        """nu = (n - m) mod 3 mapped to {0, 1, -1}; 0 means metallic."""
        nu = (self.n - self.m) % 3
        return nu if nu < 2 else -1

    @property
    def is_metallic(self) -> bool:
        """True for nu = 0 tubes (armchair tubes and every third zigzag)."""
        return self.family == 0

    @property
    def is_semiconducting(self) -> bool:
        return not self.is_metallic

    def bandgap_ev(self, gamma0_ev: float = GAMMA0_EV) -> float:
        """Band gap E_g = 2 a_cc gamma0 / d [eV]; zero for metallic tubes."""
        if self.is_metallic:
            return 0.0
        return 2.0 * A_CC_NM * gamma0_ev / self.diameter_nm

    def subband_edges_ev(
        self, count: int = 4, gamma0_ev: float = GAMMA0_EV
    ) -> list[float]:
        """The ``count`` lowest conduction subband edges [eV above midgap].

        Edges follow the |3q + nu| ladder: {1, 2, 4, 5, 7, 8, ...} x
        (a_cc gamma0 / d) for semiconducting tubes and {0, 3, 3, 6, 6, ...}
        for metallic ones (each listed once; the spin x valley degeneracy
        is carried by the Subband objects).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        scale = A_CC_NM * gamma0_ev / self.diameter_nm
        nu = self.family
        ladder = sorted(abs(3 * q + nu) for q in range(-count - 1, count + 2))
        return [scale * step for step in ladder[:count]]

    def band_structure(
        self, n_subbands: int = 3, gamma0_ev: float = GAMMA0_EV
    ) -> BandStructure1D:
        """Zone-folded band structure with the ``n_subbands`` lowest subbands."""
        edges = self.subband_edges_ev(n_subbands, gamma0_ev)
        subbands = tuple(
            Subband(edge_ev=edge, degeneracy=CNT_DEGENERACY, fermi_velocity=VFERMI)
            for edge in edges
        )
        return BandStructure1D(
            subbands=subbands,
            label=f"CNT({self.n},{self.m})",
            metadata={
                "chirality": (self.n, self.m),
                "diameter_nm": self.diameter_nm,
                "gamma0_ev": gamma0_ev,
            },
        )

    def __str__(self) -> str:
        kind = "metallic" if self.is_metallic else "semiconducting"
        return f"({self.n},{self.m}) {kind} d={self.diameter_nm:.3f} nm"


def enumerate_chiralities(
    diameter_min_nm: float, diameter_max_nm: float
) -> list[Chirality]:
    """All canonical chiralities with diameter in [min, max] nm, sorted by d.

    Used by the growth-distribution models in :mod:`repro.integration` to
    sample realistic chirality populations.
    """
    if diameter_min_nm <= 0.0 or diameter_max_nm < diameter_min_nm:
        raise ValueError(
            f"invalid diameter window [{diameter_min_nm}, {diameter_max_nm}]"
        )
    n_max = int(math.ceil(math.pi * diameter_max_nm / A_LATTICE_NM)) + 1
    found = [
        chirality
        for chirality in _candidate_chiralities(n_max)
        if diameter_min_nm <= chirality.diameter_nm <= diameter_max_nm
    ]
    return sorted(found, key=lambda c: (c.diameter_nm, c.m))


def _candidate_chiralities(n_max: int) -> Iterator[Chirality]:
    for n in range(1, n_max + 1):
        for m in range(0, n + 1):
            yield Chirality(n, m)


@lru_cache(maxsize=64)
def chirality_for_gap(
    target_gap_ev: float, gamma0_ev: float = GAMMA0_EV
) -> Chirality:
    """Semiconducting chirality whose band gap is closest to the target.

    The paper's Fig. 1 uses E_g = 0.56 eV; this helper picks the matching
    tube (diameter ~ 2 a_cc gamma0 / E_g ~ 1.5 nm).  Of tubes with equal
    gaps it returns the one with the smallest ``m``.  Memoized (the last
    64 targets): the result is a frozen :class:`Chirality`, and the
    experiments ask for the same few gaps over and over.
    """
    if target_gap_ev <= 0.0:
        raise ValueError(f"target gap must be positive, got {target_gap_ev}")
    target_d = 2.0 * A_CC_NM * gamma0_ev / target_gap_ev
    candidates = enumerate_chiralities(0.6 * target_d, 1.4 * target_d)
    semiconducting = [c for c in candidates if c.is_semiconducting]
    if not semiconducting:
        raise ValueError(f"no semiconducting chirality near E_g = {target_gap_ev} eV")
    return min(
        semiconducting, key=lambda c: abs(c.bandgap_ev(gamma0_ev) - target_gap_ev)
    )
