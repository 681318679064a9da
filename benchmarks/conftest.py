"""Benchmark-suite helpers: uniform row printing for figure regeneration,
and the bias and sweep cases shared by the benchmarks and ``perf_trajectory.py``."""

from __future__ import annotations

import numpy as np

from repro.circuit.cells import build_inverter
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel, SeriesResistanceFET
from repro.devices.empirical import TabulatedFET
from repro.devices.reference import trigate_intel_22nm

# The supplies ``python -m repro scaling`` prints.
SCALING_CLI_SUPPLIES_V = (0.4, 0.5, 1.0)


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


def scaling_vtc_cases() -> list[tuple[str, object, np.ndarray]]:
    """``(label, circuit, input levels)`` of the ``scaling`` artefact's VTC sweeps.

    Unloaded inverters of the physical CNT-FET behind the 77 x 53
    bilinear table ``run_voltage_scaling`` builds (one table, filled on
    demand, shared by every CNT sweep) and of the Si trigate, each swept
    over 161 input levels at every supply the CLI prints.
    """
    cnt = TabulatedFET.from_model(
        CNTFET.reference_device(), np.linspace(-0.6, 1.3, 77), np.linspace(0.0, 1.3, 53)
    )
    silicon = trigate_intel_22nm()
    return [
        (
            f"{name} @ {vdd:.1f} V",
            build_inverter(device, vdd=vdd, load_capacitance_f=0.0).circuit,
            np.linspace(0.0, vdd, 161),
        )
        for name, device in (("CNT", cnt), ("Si", silicon))
        for vdd in SCALING_CLI_SUPPLIES_V
    ]
