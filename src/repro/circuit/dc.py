"""DC analyses: operating point and swept DC with continuation.

``dc_sweep`` re-solves the operating point while stepping one voltage
source through a list of values, seeding each solve with the previous
solution (continuation) so sharp transfer-curve transitions — like the
near-ideal inverter of the paper's Fig. 2(c) — track robustly.  The
system is built (and its stamp plan compiled) once for the whole sweep;
only source waveform levels change between points, which the compiled
evaluator re-reads on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.elements import GROUND_NAMES, VoltageSource
from repro.circuit.netlist import Circuit, CircuitError, MNASystem
from repro.circuit.solver import solve_dc
from repro.circuit.waveforms import DC

__all__ = ["OperatingPointResult", "SweepResult", "operating_point", "dc_sweep"]


@dataclass(frozen=True)
class OperatingPointResult:
    """Solved DC state with node voltages and source branch currents."""

    voltages: dict[str, float]
    source_currents: dict[str, float]

    def voltage(self, node: str) -> float:
        if node in GROUND_NAMES:
            return 0.0
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> float:
        """Branch current through a voltage source [A] (positive p -> n inside)."""
        try:
            return self.source_currents[name]
        except KeyError:
            raise CircuitError(f"unknown voltage source {name!r}") from None


@dataclass(frozen=True)
class SweepResult:
    """DC sweep result: swept values and per-node voltage traces."""

    swept_values: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node in GROUND_NAMES:
            return np.zeros(self.swept_values.size)
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> np.ndarray:
        try:
            return self.source_currents[name]
        except KeyError:
            raise CircuitError(f"unknown voltage source {name!r}") from None


def _pack_result(system: MNASystem, x: np.ndarray) -> OperatingPointResult:
    voltages = {
        node: float(x[system.node_index(node)]) for node in system.circuit.node_names
    }
    currents = {
        el.name: float(x[el.branch_index])
        for el in system.circuit.elements
        if isinstance(el, VoltageSource)
    }
    return OperatingPointResult(voltages=voltages, source_currents=currents)


def operating_point(
    circuit: Circuit, x0: np.ndarray | None = None
) -> OperatingPointResult:
    """Solve the DC operating point of the circuit.

    Cold starts go through the adaptive continuation ladder of
    :mod:`repro.circuit.continuation` (structural seeding, adaptive
    gmin/source stepping, pseudo-transient fallback), so deep FET
    chains need no ``x0``; the parameter remains as an override for
    selecting a branch of a multistable circuit.  Failures raise
    :class:`~repro.circuit.continuation.ConvergenceError` with the
    full ladder history.
    """
    system = circuit.build_system()
    x = solve_dc(system, x0)
    return _pack_result(system, x)


def dc_sweep(circuit: Circuit, source_name: str, values) -> SweepResult:
    """Sweep the named voltage source through ``values`` with continuation.

    The source's waveform is temporarily replaced by each DC level; the
    original waveform is restored afterwards.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise CircuitError("empty sweep")
    source = _find_source(circuit, source_name)
    system = circuit.build_system()

    original = source.waveform
    voltage_traces: dict[str, list[float]] = {n: [] for n in circuit.node_names}
    current_traces: dict[str, list[float]] = {
        el.name: []
        for el in circuit.elements
        if isinstance(el, VoltageSource)
    }
    x_prev: np.ndarray | None = None
    try:
        for value in values:
            source.waveform = DC(float(value))
            x_prev = solve_dc(system, x_prev)
            point = _pack_result(system, x_prev)
            for node in voltage_traces:
                voltage_traces[node].append(point.voltages[node])
            for name in current_traces:
                current_traces[name].append(point.source_currents[name])
    finally:
        source.waveform = original
    return SweepResult(
        swept_values=values,
        voltages={n: np.array(v) for n, v in voltage_traces.items()},
        source_currents={n: np.array(v) for n, v in current_traces.items()},
    )


def _find_source(circuit: Circuit, name: str) -> VoltageSource:
    for element in circuit.elements:
        if isinstance(element, VoltageSource) and element.name == name:
            return element
    raise CircuitError(f"no voltage source named {name!r}")
