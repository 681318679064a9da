"""Schottky-barrier contact model for CNT-FETs.

Section III.B: "In an ideal situation the channel contact would consist
of metal and form a low barrier Schottky-contact to the channel" — and
the gap between measured CNT-FETs and the ballistic bound is largely the
*non*-ideal Schottky barrier at real metal contacts.  This module wraps
the ballistic CNT-FET with an energy-dependent source-contact
transmission

    T_SB(E) = 1                          for E above the barrier top,
              exp((E - phi_B) / e00)     (tunneling tail) below,

and evaluates the Landauer integral numerically at the intrinsic
device's self-consistently solved barrier.  The charge self-consistency
of the interior is kept from the intrinsic solve (the contact barrier is
thin and carries negligible charge), which is the usual compact-model
approximation.

With ``barrier_ev = 0`` the model reduces to the intrinsic device; with
a mid-gap barrier it reproduces the strongly suppressed, thermally
activated injection of early CNT-FETs.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import FETModel
from repro.devices.cntfet import CNTFET
from repro.physics.constants import H, KB_EV, Q
from repro.physics.fermi import fermi_dirac

__all__ = ["SchottkyBarrierCNTFET"]


class SchottkyBarrierCNTFET(FETModel):
    """A ballistic CNT-FET injection-limited by a source Schottky barrier.

    Parameters
    ----------
    intrinsic:
        The ideally contacted device (provides bands + electrostatics).
    barrier_ev:
        Schottky barrier height phi_B above the channel conduction-band
        edge [eV].  0 reduces exactly to the intrinsic ballistic device
        (an ohmic, Pd-class contact); ~E_g/2 models a mid-gap metal.
    tunneling_energy_ev:
        Decay energy e00 of the sub-barrier tunneling tail [eV]; smaller
        means a thicker barrier (less tunneling).  Thin-body CNT
        barriers are transparent, e00 ~ 50-100 meV.
    """

    def __init__(
        self,
        intrinsic: CNTFET,
        barrier_ev: float = 0.1,
        tunneling_energy_ev: float = 0.07,
    ):
        if barrier_ev < 0.0:
            raise ValueError(f"barrier must be >= 0, got {barrier_ev}")
        if tunneling_energy_ev <= 0.0:
            raise ValueError(
                f"tunneling energy must be positive, got {tunneling_energy_ev}"
            )
        self.intrinsic = intrinsic
        self.barrier_ev = barrier_ev
        self.tunneling_energy_ev = tunneling_energy_ev
        self._kt = KB_EV * intrinsic.params.temperature_k

    def contact_transmission(self, energy_ev, band_edge_ev: float = 0.0):
        """Source-contact transmission vs energy.

        The barrier top sits ``barrier_ev`` above the subband edge;
        energies above it transmit fully, energies below decay with the
        tunneling tail.
        """
        energy_ev = np.asarray(energy_ev, dtype=float)
        barrier_top = band_edge_ev + self.barrier_ev
        below = np.exp(
            np.clip((energy_ev - barrier_top) / self.tunneling_energy_ev, -200, 0.0)
        )
        return np.where(energy_ev >= barrier_top, 1.0, below)

    def current(self, vgs: float, vds: float) -> float:
        if vds < 0.0:
            return -self.current(vgs - vds, -vds)
        op = self.intrinsic.operating_point(vgs, vds)
        solver = self.intrinsic._solver
        mu_s, mu_d = 0.0, -vds
        kt = self._kt
        temperature_k = self.intrinsic.params.temperature_k
        total = 0.0
        for band, edge in zip(solver.bands.subbands, solver._edges_ev):
            edge_abs = edge + op.barrier_ev
            e_hi = max(mu_s, mu_d, edge_abs + self.barrier_ev) + 25.0 * kt
            energies = np.linspace(edge_abs, e_hi, 801)
            transmission = (
                self.intrinsic.params.transmission
                * self.contact_transmission(energies, band_edge_ev=edge_abs)
            )
            window = fermi_dirac(energies, mu_s, temperature_k) - fermi_dirac(
                energies, mu_d, temperature_k
            )
            integral_ev = float(np.trapezoid(transmission * window, energies))
            total += band.degeneracy * Q * Q / H * integral_ev
        return total

    def injection_limited_fraction(self, vgs: float, vds: float) -> float:
        """I_schottky / I_intrinsic at a bias point, in (0, 1]."""
        intrinsic_current = self.intrinsic.current(vgs, vds)
        if intrinsic_current <= 0.0:
            return 1.0
        return self.current(vgs, vds) / intrinsic_current
