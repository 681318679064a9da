"""Ablations on the design choices the paper calls out.

Three knobs the text argues about, each swept in isolation:

* **Dark space** (Skotnicki & Boeuf, Section I/III.C): SS vs gate length
  for Si / Ge / InGaAs / InAs channels against the zero-dark-space CNT —
  showing the high-mobility penalty a better gate dielectric cannot fix.
* **Ballisticity** (Section III.E): CNT-FET on-current vs channel length
  through the mean-free-path transmission.
* **Contact length** (Section III.B): series resistance vs metal length,
  the sub-100 nm dependence with the ~11 kOhm long-contact floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.sweep import SweepPlan
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel
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
    "run_dark_space_ablation",
    "run_ballisticity_ablation",
    "run_contact_length_ablation",
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
