"""Standard cells: the CMOS-style inverter and its transfer curve.

Builders assemble complementary logic from any pair of n/p device models
(the p-type is derived by mirroring the n-type unless given explicitly),
which is exactly how the paper's Fig. 2 compares "symmetrical pFET and
nFET" inverters built from saturating vs non-saturating devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.dc import dc_sweep
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC
from repro.devices.base import FETModel, PType

__all__ = ["InverterCell", "build_inverter", "inverter_vtc"]


@dataclass(frozen=True)
class InverterCell:
    """Handle to an assembled inverter inside a circuit."""

    circuit: Circuit
    input_node: str
    output_node: str
    vdd_source: str


def build_inverter(
    nfet: FETModel,
    pfet: FETModel | None = None,
    vdd: float = 1.0,
    load_capacitance_f: float = 10e-15,
    input_waveform=None,
    title: str = "inverter",
) -> InverterCell:
    """A loaded CMOS inverter: pFET vdd->out, nFET out->gnd, C_load at out.

    The 10 fF default load is the one used in the paper's Fig. 2 study.
    """
    if pfet is None:
        pfet = PType(nfet)
    circuit = Circuit(title)
    circuit.add_voltage_source("VDD", "vdd", "0", DC(vdd))
    circuit.add_voltage_source("VIN", "in", "0", input_waveform or DC(0.0))
    # p-type: source at vdd, drain at out (model sees vgs = Vg - Vvdd < 0).
    circuit.add_fet("MP", "out", "in", "vdd", pfet)
    circuit.add_fet("MN", "out", "in", "0", nfet)
    if load_capacitance_f > 0.0:
        circuit.add_capacitor("CL", "out", "0", load_capacitance_f)
    return InverterCell(
        circuit=circuit, input_node="in", output_node="out", vdd_source="VDD"
    )


def inverter_vtc(
    nfet: FETModel,
    pfet: FETModel | None = None,
    vdd: float = 1.0,
    n_points: int = 201,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Voltage transfer curve of the inverter: (v_in, v_out, i_supply).

    Sweeps the input source with :func:`~repro.circuit.dc.dc_sweep` (every
    point an independent row of one Newton stack, polished to machine
    precision); the supply current
    trace exposes the short-circuit ("burn dc power from VDD to ground")
    behaviour the paper highlights for non-saturating devices.
    """
    cell = build_inverter(nfet, pfet, vdd=vdd, load_capacitance_f=0.0)
    values = np.linspace(0.0, vdd, n_points)
    sweep = dc_sweep(cell.circuit, "VIN", values)
    v_out = sweep.voltage(cell.output_node)
    i_supply = -sweep.source_current(cell.vdd_source)  # current delivered by VDD
    return values, v_out, i_supply
