"""Gate electrostatics: capacitances, scale lengths, and the dark-space penalty.

This module backs two of the paper's arguments:

* Section I / III.C — the Skotnicki & Boeuf "dark space" effect: channels
  with low density of states and high permittivity carry their inversion
  charge well below the dielectric interface, so the *equivalent gate
  dielectric thickness in inversion* is much larger than the physical EOT.
  That degrades subthreshold swing (SS) and drain-induced barrier lowering
  (DIBL) at short gate lengths no matter how high-k the gate stack is.  A
  CNT conducts in a single atomic layer, so its dark space is essentially
  zero (Section III.C).
* Section III.A — gate-all-around (GAA) electrostatics give the smallest
  scale length and hence the best SS/DIBL at a given gate length.

The scale-length formulation is the standard evanescent-mode model: the
source/drain potential decays into the channel as exp(-L / (2 lambda));
SS and DIBL degrade with that exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.physics.constants import (
    EPS0,
    ROOM_TEMPERATURE_K,
    subthreshold_limit_mv_per_decade,
)

EPS_SIO2 = 3.9
"""Relative permittivity of SiO2, the EOT reference."""


# --------------------------------------------------------------------------
# geometric gate capacitances (per unit channel length)
# --------------------------------------------------------------------------
def gate_all_around_capacitance(
    diameter_nm: float, t_ox_nm: float, eps_r: float
) -> float:
    """Coaxial GAA gate capacitance per unit length [F/m].

    C' = 2 pi eps0 eps_r / ln(1 + 2 t_ox / d) — the cylindrical-capacitor
    result for a tube of diameter d wrapped by a dielectric of thickness
    t_ox (Fig. 3 of the paper).
    """
    _require_positive(diameter_nm=diameter_nm, t_ox_nm=t_ox_nm, eps_r=eps_r)
    return 2.0 * math.pi * EPS0 * eps_r / math.log(1.0 + 2.0 * t_ox_nm / diameter_nm)


def ribbon_plate_capacitance(
    width_nm: float, t_ox_nm: float, eps_r: float, fringe_factor: float = 1.5
) -> float:
    """Top-gated nanoribbon capacitance per unit length [F/m].

    Parallel-plate term eps0 eps_r W / t_ox plus a fringe enhancement;
    ``fringe_factor`` multiplies the effective width by
    (1 + fringe * t_ox / W), the usual first-order correction for ribbons
    no wider than the oxide is thick.
    """
    _require_positive(width_nm=width_nm, t_ox_nm=t_ox_nm, eps_r=eps_r)
    if fringe_factor < 0.0:
        raise ValueError(f"fringe factor must be >= 0, got {fringe_factor}")
    effective_width = width_nm * (1.0 + fringe_factor * t_ox_nm / width_nm)
    return EPS0 * eps_r * (effective_width * 1e-9) / (t_ox_nm * 1e-9)


# --------------------------------------------------------------------------
# dark space / equivalent inversion thickness (Skotnicki & Boeuf)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ChannelMaterial:
    """Electrostatic description of a channel material.

    ``dark_space_nm`` is the centroid depth of the inversion charge below
    the dielectric interface; low-DOS high-permittivity materials (InGaAs,
    InAs, Ge) have large values, silicon ~0.4-0.7 nm, and a CNT — one atom
    thin — effectively zero.
    """

    name: str
    eps_r: float
    dark_space_nm: float
    body_thickness_nm: float = 5.0

    def __post_init__(self) -> None:
        if self.eps_r <= 0.0 or self.dark_space_nm < 0.0 or self.body_thickness_nm <= 0.0:
            raise ValueError(f"invalid channel material parameters for {self.name!r}")


SILICON = ChannelMaterial("Si", eps_r=11.7, dark_space_nm=0.55)
GERMANIUM = ChannelMaterial("Ge", eps_r=16.0, dark_space_nm=0.9)
INGAAS = ChannelMaterial("InGaAs", eps_r=13.9, dark_space_nm=1.6)
INAS = ChannelMaterial("InAs", eps_r=15.1, dark_space_nm=2.0)
CNT_CHANNEL = ChannelMaterial("CNT", eps_r=1.0, dark_space_nm=0.0, body_thickness_nm=1.0)


def inversion_eot_nm(physical_eot_nm: float, material: ChannelMaterial) -> float:
    """Equivalent oxide thickness *in inversion* [nm].

    EOT_inv = EOT + t_dark * eps_SiO2 / eps_ch.  The second term is the
    dark-space penalty: it cannot be reduced by a better gate dielectric,
    which is Skotnicki & Boeuf's point quoted in the paper's introduction.
    """
    if physical_eot_nm <= 0.0:
        raise ValueError(f"EOT must be positive, got {physical_eot_nm}")
    return physical_eot_nm + material.dark_space_nm * EPS_SIO2 / material.eps_r


# --------------------------------------------------------------------------
# scale length, SS and DIBL
# --------------------------------------------------------------------------
def scale_length_nm(
    material: ChannelMaterial,
    physical_eot_nm: float,
    geometry: str = "planar",
) -> float:
    """Evanescent-mode scale length lambda [nm].

    lambda = sqrt((eps_ch / eps_SiO2) * t_body * EOT_inv) / geometry_factor,
    with geometry factor 1 (planar single gate), 2 (double gate / fin) or
    pi (gate-all-around) — the standard hierarchy that makes GAA the most
    scalable geometry (Section III.A).
    """
    factors = {"planar": 1.0, "double-gate": 2.0, "gaa": math.pi}
    if geometry not in factors:
        raise ValueError(f"unknown geometry {geometry!r}; choose from {sorted(factors)}")
    eot_inv = inversion_eot_nm(physical_eot_nm, material)
    lam = math.sqrt(
        (material.eps_r / EPS_SIO2) * material.body_thickness_nm * eot_inv
    )
    return lam / factors[geometry]


def barrier_control_factor(gate_length_nm: float, scale_nm: float) -> float:
    """Fraction of the channel barrier the gate controls, in (0, 1].

    1 - 2 exp(-L / (2 lambda)): approaches 1 for long channels and
    collapses as L nears the scale length.
    """
    _require_positive(gate_length_nm=gate_length_nm, scale_nm=scale_nm)
    return max(1e-6, 1.0 - 2.0 * math.exp(-gate_length_nm / (2.0 * scale_nm)))


def subthreshold_swing_mv_per_decade(
    gate_length_nm: float,
    scale_nm: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
    body_factor: float = 1.0,
) -> float:
    """SS [mV/dec] including short-channel degradation.

    SS = body_factor * SS_thermal / barrier_control(L, lambda).  The
    body factor m = 1 + (C_dep + C_it)/C_ox accounts for imperfect gate
    efficiency even at long channel.
    """
    if body_factor < 1.0:
        raise ValueError(f"body factor must be >= 1, got {body_factor}")
    control = barrier_control_factor(gate_length_nm, scale_nm)
    return body_factor * subthreshold_limit_mv_per_decade(temperature_k) / control


def dibl_mv_per_v(gate_length_nm: float, scale_nm: float) -> float:
    """DIBL [mV/V] from the same evanescent decay: ~1000 * 2 exp(-L/(2 lambda))."""
    _require_positive(gate_length_nm=gate_length_nm, scale_nm=scale_nm)
    return 1000.0 * min(1.0, 2.0 * math.exp(-gate_length_nm / (2.0 * scale_nm)))


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
