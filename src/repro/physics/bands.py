"""Common 1D band-structure abstractions shared by CNT and GNR models.

Both carbon channels reduce, near the gap, to a set of 1D subbands with a
hyperbolic ("two-band") dispersion

    E_j(k) = sqrt(E_j0^2 + (hbar v_F k)^2)

measured from midgap, where ``E_j0`` is the subband edge (half the subband
gap) and ``v_F`` the graphene Fermi velocity.  The :class:`Subband` and
:class:`BandStructure1D` containers carry the edges plus the degeneracy,
and provide dispersion, density of states and effective mass in a form the
transport package consumes without knowing whether the channel is a tube
or a ribbon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.physics.constants import HBAR, Q, VFERMI


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

    @property
    def effective_mass_kg(self) -> float:
        """Band-edge effective mass m* = E_edge / v_F^2 [kg].

        Follows from expanding the hyperbolic dispersion around k = 0.
        A gapless (metallic) subband has zero effective mass.
        """
        return self.edge_ev * Q / (self.fermi_velocity**2)

    def wavevector_per_m(self, energy_ev):
        """Inverse dispersion k(E) [1/m] for energies at/above the edge."""
        energy_ev = np.asarray(energy_ev, dtype=float)
        arg = np.clip(energy_ev**2 - self.edge_ev**2, 0.0, None)
        return np.sqrt(arg) * Q / (HBAR * self.fermi_velocity)

    def energy_kt_on_grids(self, e_top_ev, t_squared: np.ndarray, kt_ev: float) -> np.ndarray:
        """Dispersion E(k) / kT on the grids k = k(E_top) t, one row per E_top.

        ``t_squared`` holds t^2 for the grid points t in [0, 1].  On such a
        grid the hyperbolic dispersion reads
        E^2 = E_edge^2 + (E_top^2 - E_edge^2) t^2, so no wavevector is
        formed.  The result is a fresh (len(e_top), len(t)) array.
        """
        e_top = np.asarray(e_top_ev, dtype=float)
        energy = ((e_top**2 - self.edge_ev**2) / kt_ev**2)[:, None] * t_squared
        energy += (self.edge_ev / kt_ev) ** 2
        return np.sqrt(energy, out=energy)

    def velocity_m_per_s(self, energy_ev):
        """Group velocity v(E) = v_F sqrt(1 - (E_edge/E)^2) [m/s]."""
        energy_ev = np.asarray(energy_ev, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(energy_ev > 0.0, self.edge_ev / energy_ev, 1.0)
        return self.fermi_velocity * np.sqrt(np.clip(1.0 - ratio**2, 0.0, 1.0))

    def dos_per_ev_per_m(self, energy_ev):
        """Density of states of this subband [states / (eV m)], both k signs.

        D_j(E) = g / (pi hbar v_F) * E / sqrt(E^2 - E_edge^2) for E > E_edge,
        zero below.  The van Hove singularity at the edge is returned as
        ``inf``; charge integrals should therefore be done in k-space (see
        :mod:`repro.transport.ballistic`).
        """
        energy_ev = np.asarray(energy_ev, dtype=float)
        hbar_v_ev_m = HBAR * self.fermi_velocity / Q  # [eV m]
        prefactor = self.degeneracy / (np.pi * hbar_v_ev_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            dos = np.where(
                energy_ev > self.edge_ev,
                prefactor * energy_ev / np.sqrt(
                    np.clip(energy_ev**2 - self.edge_ev**2, 1e-300, None)
                ),
                np.where(np.isclose(energy_ev, self.edge_ev), np.inf, 0.0),
            )
        return dos


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

    @property
    def gap_ev(self) -> float:
        """Band gap E_g = 2 * lowest subband edge [eV]."""
        return 2.0 * self.subbands[0].edge_ev

    @property
    def is_semiconducting(self) -> bool:
        """True when the channel has a finite gap (> 1 meV)."""
        return self.gap_ev > 1e-3

    def dos_per_ev_per_m(self, energy_ev):
        """Total conduction-band DOS [states / (eV m)] at the given energies."""
        energy_ev = np.asarray(energy_ev, dtype=float)
        total = np.zeros_like(energy_ev, dtype=float)
        for band in self.subbands:
            total = total + band.dos_per_ev_per_m(energy_ev)
        return total
