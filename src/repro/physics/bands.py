"""Common 1D band-structure abstractions shared by CNT and GNR models.

Both carbon channels reduce, near the gap, to a set of 1D subbands with a
hyperbolic ("two-band") dispersion

    E_j(k) = sqrt(E_j0^2 + (hbar v_F k)^2)

measured from midgap, where ``E_j0`` is the subband edge (half the subband
gap) and ``v_F`` the graphene Fermi velocity.  The :class:`Subband` and
:class:`BandStructure1D` containers carry the edges, the degeneracy and
the band velocity, all the top-of-barrier solver needs, without knowing
whether the channel is a tube or a ribbon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.physics.constants import VFERMI


@dataclass(frozen=True)
class Subband:
    """A single 1D conduction subband of a carbon channel.

    Attributes
    ----------
    edge_ev:
        Subband minimum above midgap [eV] (half the subband gap).
    degeneracy:
        Combined spin x valley degeneracy of the subband (4 for CNTs,
        2 for armchair GNRs where valley degeneracy is lifted).
    fermi_velocity:
        Asymptotic band velocity [m/s]; defaults to the graphene value.
    """

    edge_ev: float
    degeneracy: int = 4
    fermi_velocity: float = VFERMI

    def __post_init__(self) -> None:
        if self.edge_ev < 0.0:
            raise ValueError(f"subband edge must be >= 0 eV, got {self.edge_ev}")
        if self.degeneracy <= 0:
            raise ValueError(f"degeneracy must be positive, got {self.degeneracy}")


@dataclass(frozen=True)
class BandStructure1D:
    """A set of conduction subbands of a 1D carbon channel.

    The valence band is assumed mirror-symmetric (electron-hole symmetry of
    the nearest-neighbour graphene Hamiltonian), so the band gap is twice
    the lowest subband edge.
    """

    subbands: tuple[Subband, ...]
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.subbands:
            raise ValueError("band structure needs at least one subband")
        edges = [band.edge_ev for band in self.subbands]
        if list(edges) != sorted(edges):
            raise ValueError("subbands must be sorted by increasing edge energy")
