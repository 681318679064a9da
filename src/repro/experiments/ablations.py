"""Ablations on the design choices the paper calls out.

Four knobs the text argues about, each swept in isolation:

* **Dark space** (Skotnicki & Boeuf, Section I/III.C): SS vs gate length
  for Si / Ge / InGaAs / InAs channels against the zero-dark-space CNT —
  showing the high-mobility penalty a better gate dielectric cannot fix.
* **Ballisticity** (Section III.E): CNT-FET on-current vs channel length
  through the mean-free-path transmission.
* **Contact length** (Section III.B): series resistance vs metal length,
  the sub-100 nm dependence with the ~11 kOhm long-contact floor.
* **TFET electrostatics** (Section IV): SS and on-current of the gated
  PIN diode vs gate-oxide thickness — the paper's "if the electrostatic
  design is improved ... an even better result should be obtainable".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.sweep import SweepPlan
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel
from repro.devices.tfet import CNTTunnelFET
from repro.physics.cnt import chirality_for_gap
from repro.physics.electrostatics import (
    CNT_CHANNEL,
    ChannelMaterial,
    GERMANIUM,
    INAS,
    INGAAS,
    SILICON,
    scale_length_nm,
    subthreshold_swing_mv_per_decade,
)

__all__ = [
    "DarkSpaceAblation",
    "BallisticityAblation",
    "ContactLengthAblation",
    "TFETOxideAblation",
    "run_dark_space_ablation",
    "run_ballisticity_ablation",
    "run_contact_length_ablation",
    "run_tfet_oxide_ablation",
]


@dataclass(frozen=True)
class DarkSpaceAblation:
    """SS vs gate length per channel material."""

    gate_lengths_nm: np.ndarray
    ss_by_material: dict[str, np.ndarray]

    def penalty_at(self, gate_length_nm: float, material: str) -> float:
        """SS(material) / SS(CNT) at one gate length."""
        idx = int(np.argmin(np.abs(self.gate_lengths_nm - gate_length_nm)))
        return float(self.ss_by_material[material][idx] / self.ss_by_material["CNT"][idx])


def _dark_space_kernel(corner, rng, payload):
    """SS-vs-L trace of one (material, geometry) corner."""
    material, geometry = corner
    lengths, physical_eot_nm = payload
    lam = scale_length_nm(material, physical_eot_nm, geometry=geometry)
    return material.name, np.array(
        [subthreshold_swing_mv_per_decade(float(l), lam) for l in lengths]
    )


def run_dark_space_ablation(
    gate_lengths_nm=(7.0, 9.0, 12.0, 16.0, 22.0, 30.0), physical_eot_nm: float = 0.7
) -> DarkSpaceAblation:
    """Sweep SS vs L for every channel material at a fixed gate stack."""
    lengths = np.asarray(gate_lengths_nm, dtype=float)
    materials: list[tuple[ChannelMaterial, str]] = [
        (SILICON, "double-gate"),
        (GERMANIUM, "double-gate"),
        (INGAAS, "double-gate"),
        (INAS, "double-gate"),
        (CNT_CHANNEL, "gaa"),
    ]
    sweep = SweepPlan(_dark_space_kernel, payload=(lengths, physical_eot_nm))
    ss = dict(sweep.run(materials))
    return DarkSpaceAblation(gate_lengths_nm=lengths, ss_by_material=ss)


@dataclass(frozen=True)
class BallisticityAblation:
    """On-current and transmission vs channel length."""

    channel_lengths_nm: np.ndarray
    transmission: np.ndarray
    on_current_a: np.ndarray


def _ballisticity_kernel(length, rng, chirality):
    """(transmission, on-current) of a CNT-FET at one channel length."""
    device = CNTFET(chirality, channel_length_nm=float(length))
    return device.transmission, device.current(0.6, 0.5)


def run_ballisticity_ablation(
    channel_lengths_nm=(9.0, 20.0, 50.0, 100.0, 300.0, 1000.0)
) -> BallisticityAblation:
    """CNT-FET on-current degradation with channel length."""
    lengths = np.asarray(channel_lengths_nm, dtype=float)
    sweep = SweepPlan(_ballisticity_kernel, payload=chirality_for_gap(0.56))
    points = sweep.run(lengths)
    return BallisticityAblation(
        channel_lengths_nm=lengths,
        transmission=np.array([p[0] for p in points]),
        on_current_a=np.array([p[1] for p in points]),
    )


@dataclass(frozen=True)
class ContactLengthAblation:
    """Device series resistance vs contact metal length."""

    contact_lengths_nm: np.ndarray
    series_resistance_ohm: np.ndarray


def _contact_kernel(length, rng, model):
    """Series resistance of one contact length."""
    return model.device_series_resistance_ohm(float(length))


def run_contact_length_ablation(
    contact_lengths_nm=(5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
) -> ContactLengthAblation:
    """Sweep the transfer-length contact model (Ref. [16] behaviour)."""
    lengths = np.asarray(contact_lengths_nm, dtype=float)
    sweep = SweepPlan(_contact_kernel, payload=ContactModel())
    resistance = np.array(sweep.run(lengths))
    return ContactLengthAblation(
        contact_lengths_nm=lengths, series_resistance_ohm=resistance
    )


@dataclass(frozen=True)
class TFETOxideAblation:
    """TFET figures of merit vs gate oxide thickness."""

    t_ox_nm: np.ndarray
    ss_mv_per_decade: np.ndarray
    on_current_a: np.ndarray
    screening_length_nm: np.ndarray


def _tfet_oxide_kernel(t_ox, rng, chirality):
    """(SS, on-current, screening length) of the TFET at one oxide thickness."""
    device = CNTTunnelFET(chirality, t_ox_nm=float(t_ox))
    return (
        device.subthreshold_swing_mv_per_decade(),
        abs(device.current(-2.0, -0.5)),
        device.screening_length_nm,
    )


def run_tfet_oxide_ablation(t_ox_values_nm=(2.0, 5.0, 10.0, 20.0)) -> TFETOxideAblation:
    """Thinner oxide -> shorter screening length -> more on-current.

    This is the paper's predicted improvement path for the Fig. 6 device
    ("implementing high-k dielectrics and segmented gates").
    """
    thicknesses = np.asarray(t_ox_values_nm, dtype=float)
    sweep = SweepPlan(_tfet_oxide_kernel, payload=chirality_for_gap(0.56))
    points = sweep.run(thicknesses)
    return TFETOxideAblation(
        t_ox_nm=thicknesses,
        ss_mv_per_decade=np.array([p[0] for p in points]),
        on_current_a=np.array([p[1] for p in points]),
        screening_length_nm=np.array([p[2] for p in points]),
    )
