"""Benchmark-suite helpers: uniform row printing for figure regeneration,
and the bias cases shared by the benchmarks and ``perf_trajectory.py``."""

from __future__ import annotations

import numpy as np

from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel, SeriesResistanceFET


def print_rows(title: str, rows) -> None:
    """Print (label, value...) rows in the format EXPERIMENTS.md quotes."""
    print(f"\n=== {title} ===")
    for row in rows:
        label, *values = row
        rendered = "  ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        )
        print(f"  {label:45s} {rendered}")


def fig5_contact_transfer_case() -> tuple[SeriesResistanceFET, np.ndarray, float]:
    """(device, gate biases, V_DS) of the Fig. 5 contact-degraded transfer curve.

    The paper's reference ballistic CNT-FET behind two 20 nm
    transfer-length contacts, at 105 gate biases and V_DS = 0.5 V.
    """
    per_contact = ContactModel().resistance_ohm(20.0)
    device = SeriesResistanceFET(CNTFET.reference_device(), per_contact, per_contact)
    return device, np.linspace(-0.1, 1.2, 105), 0.5
