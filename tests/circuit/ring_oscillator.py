"""Ring oscillator: a cold-start fixture for the DC and transient engines.

An odd inverter ring has no consistent logic levels, so its DC solve
and its transient start-up exercise the continuation ladder and the
structural seeder in ways a chain does not.  Only tests import this
module.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.transient import TransientResult
from repro.circuit.waveforms import DC, Pulse
from repro.devices.base import FETModel, PType


def build_ring_oscillator(
    nfet: FETModel,
    pfet: FETModel | None = None,
    n_stages: int = 5,
    vdd: float = 1.0,
    stage_capacitance_f: float = 1e-15,
    kick_v: float = 0.02,
) -> Circuit:
    """An odd-stage ring oscillator with per-stage load capacitors.

    A small asymmetric kick source at stage 0 breaks the metastable
    all-at-VDD/2 DC solution so the oscillation starts deterministically.
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError(f"need an odd stage count >= 3, got {n_stages}")
    if pfet is None:
        pfet = PType(nfet)
    circuit = Circuit(f"ro{n_stages}")
    circuit.add_voltage_source("VDD", "vdd", "0", DC(vdd))
    for stage in range(n_stages):
        node_in = f"n{stage}"
        node_out = f"n{(stage + 1) % n_stages}"
        circuit.add_fet(f"MP{stage}", node_out, node_in, "vdd", pfet)
        circuit.add_fet(f"MN{stage}", node_out, node_in, "0", nfet)
        circuit.add_capacitor(f"C{stage}", node_out, "0", stage_capacitance_f)
    # Startup kick: brief pulse injected at n0 through a small source.
    circuit.add_voltage_source(
        "VKICK",
        "kick",
        "0",
        Pulse(v1=0.0, v2=kick_v, delay_s=0.0, rise_s=1e-12, fall_s=1e-12, width_s=20e-12),
    )
    circuit.add_resistor("RKICK", "kick", "n0", 1e4)
    return circuit


def ring_oscillator_frequency(
    result: TransientResult, node: str = "n0", vdd: float = 1.0
) -> float:
    """Oscillation frequency [Hz] from mid-supply crossings of one node."""
    v = result.voltage(node)
    t = result.time_s
    mid = vdd / 2.0
    above = v > mid
    crossings = t[1:][above[1:] & ~above[:-1]]  # rising crossings
    if crossings.size < 3:
        raise ValueError("not enough oscillation periods captured")
    periods = np.diff(crossings[-max(3, crossings.size // 2):])
    return float(1.0 / np.mean(periods))
