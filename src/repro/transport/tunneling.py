"""Band-to-band and Schottky tunneling for carbon-nanotube junctions.

Supports the paper's Section IV (CNT tunnel FETs): the gated PIN diode of
Fig. 6 turns on by band-to-band tunneling (BTBT) at the p-i junction when
the gate pulls the intrinsic region's bands below the source valence-band
edge.  Two ingredients:

* the **two-band imaginary dispersion** inside a CNT gap (Flietner form),

      kappa(E) = sqrt((E_g/2)^2 - E^2) / (hbar v_F),

  exact for the hyperbolic dispersion used elsewhere in this package, and

* a **WKB transmission** through a junction whose band edges relax over a
  screening length ``lambda`` (exponential profile), integrated over the
  tunnel window with Landauer statistics.

The same WKB machinery provides Schottky-barrier transmissions used by
the contact models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.physics.constants import HBAR, Q, VFERMI

__all__ = [
    "imaginary_dispersion_per_m",
    "wkb_transmission_uniform_field",
    "JunctionProfile",
    "junction_btbt_transmission",
]


def imaginary_dispersion_per_m(energy_ev, gap_ev: float, fermi_velocity: float = VFERMI):
    """Two-band evanescent wavevector kappa(E) [1/m] inside the gap.

    ``energy_ev`` is measured from midgap; kappa is maximal at midgap
    (E_g / (2 hbar v_F)) and vanishes at the band edges.
    """
    if gap_ev <= 0.0:
        raise ValueError(f"gap must be positive, got {gap_ev}")
    energy_ev = np.asarray(energy_ev, dtype=float)
    half_gap = gap_ev / 2.0
    inside = np.clip(half_gap**2 - energy_ev**2, 0.0, None)
    return np.sqrt(inside) * Q / (HBAR * fermi_velocity)


def wkb_transmission_uniform_field(
    gap_ev: float, field_v_per_m: float, fermi_velocity: float = VFERMI
) -> float:
    """WKB BTBT transmission through a uniform field F.

    T = exp(-pi E_g^2 / (4 hbar v_F q F)) — the analytic two-band result
    (integral of kappa over the triangular barrier of width E_g / qF).
    """
    if field_v_per_m <= 0.0:
        raise ValueError(f"field must be positive, got {field_v_per_m}")
    # Exponent: pi (E_g[J])^2 / (4 hbar v_F qF); qF [N] is the slope of the
    # potential energy, so the expression is dimensionless.
    exponent = (
        math.pi
        * (gap_ev * Q) ** 2
        / (4.0 * HBAR * fermi_velocity * Q * field_v_per_m)
    )
    return math.exp(-exponent)


@dataclass(frozen=True)
class JunctionProfile:
    """Band-edge profile across a gated p-i junction.

    The conduction/valence edges move from the source values to the
    channel values over a screening length ``lambda_nm`` with an
    exponential relaxation — the natural solution of the 1D screened
    Poisson equation that also defines the TFET's steepest achievable
    turn-on.

    Energies are midgap-referenced on the *source* side; ``delta_ev`` is
    the electrostatic potential-energy shift of the channel relative to
    the source (negative = channel bands pulled down, as under positive
    back-gate drive of the n-side in reverse bias).
    """

    gap_ev: float
    delta_ev: float
    lambda_nm: float

    def __post_init__(self) -> None:
        if self.gap_ev <= 0.0:
            raise ValueError(f"gap must be positive, got {self.gap_ev}")
        if self.lambda_nm <= 0.0:
            raise ValueError(f"screening length must be positive, got {self.lambda_nm}")

    def midgap_ev(self, x_nm):
        """Local midgap energy [eV] vs position (x < 0 source, x > 0 channel)."""
        x_nm = np.asarray(x_nm, dtype=float)
        response = np.where(
            x_nm < 0.0,
            0.5 * np.exp(x_nm / self.lambda_nm),
            1.0 - 0.5 * np.exp(-x_nm / self.lambda_nm),
        )
        return self.delta_ev * response

    def tunnel_window_ev(self) -> tuple[float, float]:
        """Energy window (lo, hi) where source valence overlaps channel conduction.

        Empty (lo >= hi) until the junction is staggered past breakover,
        i.e. until |delta| exceeds the gap.
        """
        source_valence_top = -self.gap_ev / 2.0
        channel_conduction_bottom = self.delta_ev + self.gap_ev / 2.0
        return channel_conduction_bottom, source_valence_top


def junction_btbt_transmission(
    profile: JunctionProfile,
    energy_ev,
    fermi_velocity: float = VFERMI,
    n_points: int = 400,
):
    """WKB transmission T(E) through the junction's forbidden region.

    For each energy the classically forbidden segment is where
    |E - midgap(x)| < E_g/2; kappa is integrated over it numerically.
    Energies outside the tunnel window return 0 transmission (no final
    states) and energies with no forbidden segment return 1.
    """
    energy_ev = np.atleast_1d(np.asarray(energy_ev, dtype=float))
    lo, hi = profile.tunnel_window_ev()
    span = 12.0 * profile.lambda_nm
    x_nm = np.linspace(-span, span, n_points)
    midgap = profile.midgap_ev(x_nm)
    dx_m = (x_nm[1] - x_nm[0]) * 1e-9

    transmission = np.zeros_like(energy_ev)
    inside = (lo < energy_ev) & (energy_ev < hi)
    local = energy_ev[inside, None] - midgap
    kappa = imaginary_dispersion_per_m(local, profile.gap_ev, fermi_velocity)
    transmission[inside] = np.exp(-2.0 * (np.sum(kappa, axis=1) * dx_m))
    if transmission.size == 1:
        return float(transmission[0])
    return transmission
