"""Armchair graphene-nanoribbon (AGNR) tight-binding band structure.

An N-AGNR has N dimer lines across its width.  Hard-wall boundary
conditions on the nearest-neighbour graphene Hamiltonian quantise the
transverse momentum at theta_p = p pi / (N + 1), giving subband edges

    eps_p = gamma0 * |1 + 2 cos(theta_p)|,   p = 1 .. N

above midgap (Son/Cohen/Louie, Brey/Fertig).  The gap 2 * min_p eps_p
falls into three width families: N = 3j and N = 3j+1 are semiconducting
with E_g ~ 0.8 eV nm / W, while N = 3j+2 is quasi-metallic (zero gap at
this level of theory).  Valley degeneracy is lifted in AGNRs, so each
subband carries spin degeneracy 2 only — half the CNT value.  This is the
origin of the small linear-scale current difference between equal-gap CNT
and GNR FETs in the paper's Fig. 1(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.physics.bands import BandStructure1D, Subband
from repro.physics.constants import A_CC_NM, GAMMA0_EV, VFERMI

GNR_DEGENERACY = 2
"""Spin-only degeneracy of AGNR subbands (valley degeneracy lifted)."""


@dataclass(frozen=True)
class ArmchairGNR:
    """An armchair graphene nanoribbon with ``n_dimer`` dimer lines."""

    n_dimer: int

    def __post_init__(self) -> None:
        if self.n_dimer < 3:
            raise ValueError(f"need at least 3 dimer lines, got {self.n_dimer}")

    @property
    def width_nm(self) -> float:
        """Ribbon width W = (N - 1) * sqrt(3)/2 * a_cc [nm]."""
        return (self.n_dimer - 1) * math.sqrt(3.0) / 2.0 * A_CC_NM

    @property
    def is_semiconducting(self) -> bool:
        return self.bandgap_ev() > 1e-3

    def subband_edges_ev(
        self, count: int | None = None, gamma0_ev: float = GAMMA0_EV
    ) -> list[float]:
        """Sorted conduction subband edges eps_p [eV above midgap]."""
        n = self.n_dimer
        edges = sorted(
            gamma0_ev * abs(1.0 + 2.0 * math.cos(p * math.pi / (n + 1)))
            for p in range(1, n + 1)
        )
        if count is not None:
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            edges = edges[:count]
        return edges

    def bandgap_ev(self, gamma0_ev: float = GAMMA0_EV) -> float:
        """Band gap E_g = 2 min_p eps_p [eV]; ~0 for the 3j+2 family."""
        return 2.0 * self.subband_edges_ev(count=1, gamma0_ev=gamma0_ev)[0]

    def band_structure(
        self, n_subbands: int = 3, gamma0_ev: float = GAMMA0_EV
    ) -> BandStructure1D:
        """Band structure with the ``n_subbands`` lowest subbands.

        The longitudinal dispersion of each subband is approximated by the
        two-band hyperbola with the graphene Fermi velocity, which matches
        the tight-binding dispersion near the edges that dominate FET
        behaviour.
        """
        edges = self.subband_edges_ev(count=n_subbands, gamma0_ev=gamma0_ev)
        subbands = tuple(
            Subband(edge_ev=edge, degeneracy=GNR_DEGENERACY, fermi_velocity=VFERMI)
            for edge in edges
        )
        return BandStructure1D(
            subbands=subbands,
            label=f"AGNR({self.n_dimer})",
            metadata={
                "n_dimer": self.n_dimer,
                "width_nm": self.width_nm,
                "gamma0_ev": gamma0_ev,
            },
        )

    def __str__(self) -> str:
        kind = "semiconducting" if self.is_semiconducting else "quasi-metallic"
        return f"AGNR-{self.n_dimer} {kind} W={self.width_nm:.3f} nm"


def gnr_for_gap(
    target_gap_ev: float,
    gamma0_ev: float = GAMMA0_EV,
    n_max: int = 200,
) -> ArmchairGNR:
    """Semiconducting AGNR whose gap is closest to the target.

    The paper's Fig. 1 compares a 2.1 nm-wide GNR with E_g = 0.56 eV
    against an equal-gap CNT; this helper selects the matching ribbon.
    """
    if target_gap_ev <= 0.0:
        raise ValueError(f"target gap must be positive, got {target_gap_ev}")
    best: ArmchairGNR | None = None
    best_err = math.inf
    for n_dimer in range(3, n_max + 1):
        ribbon = ArmchairGNR(n_dimer)
        if not ribbon.is_semiconducting:
            continue
        err = abs(ribbon.bandgap_ev(gamma0_ev) - target_gap_ev)
        if err < best_err:
            best, best_err = ribbon, err
    if best is None:
        raise ValueError("no semiconducting ribbon found in the search range")
    return best
