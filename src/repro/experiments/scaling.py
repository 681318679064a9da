"""Voltage scaling: the paper's thesis, quantified.

"CNT-FETs are clear frontrunners in the search of a future CMOS switch,
that will enable further voltage and gate length scaling."  This
experiment sweeps the supply voltage for complementary inverters built
from the *physical* ballistic CNT-FET model and from the Si-trigate
reference, on the package's own circuit simulator, and tracks:

* noise margin as a fraction of VDD (logic robustness),
* CV/I drive delay at a fixed load (performance),
* inverter bistability (butterfly SNM) at each supply.

The CNT device — steeper subthreshold (no dark space), higher drive at
low V_DS — keeps its noise margins and speed down to supplies where the
silicon reference has already collapsed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.snm import butterfly_snm
from repro.analysis.timing import cv_over_i_delay_s
from repro.analysis.vtc import analyze_vtc
from repro.circuit.cells import inverter_vtc
from repro.devices.base import FETModel
from repro.devices.cntfet import CNTFET
from repro.devices.empirical import TabulatedFET
from repro.devices.fabric import CNTFabricFET
from repro.devices.reference import trigate_intel_22nm

__all__ = ["ScalingPoint", "ScalingResult", "run_voltage_scaling"]

SUPPLIES_V = (0.3, 0.4, 0.5, 0.7, 1.0)
LOAD_CAPACITANCE_F = 1e-15
FABRIC_PITCH_NM = 8.0


@dataclass(frozen=True)
class ScalingPoint:
    """One technology at one supply voltage.

    ``delay_s`` is iso-footprint: the driver occupies the same layout
    width in both technologies (a CNT fabric at 8 nm pitch matched to
    the trigate's effective width), so the comparison isolates what the
    paper claims — more drive per footprint at low voltage.
    """

    vdd: float
    nm_fraction: float
    snm_v: float
    is_bistable: bool
    delay_s: float


@dataclass(frozen=True)
class ScalingResult:
    """Supply sweep for the CNT-fabric and silicon inverters."""

    cnt: tuple[ScalingPoint, ...]
    silicon: tuple[ScalingPoint, ...]
    tubes_per_footprint: int

    def minimum_logic_supply(self, technology: str, nm_target: float = 0.2) -> float:
        """Lowest swept VDD with NM/VDD >= target and a bistable latch."""
        points = {"cnt": self.cnt, "silicon": self.silicon}[technology]
        viable = [
            p.vdd for p in points if p.nm_fraction >= nm_target and p.is_bistable
        ]
        if not viable:
            return float("inf")
        return min(viable)

    def delay_advantage_at(self, vdd: float) -> float:
        """Si delay / CNT delay at one supply (iso-footprint)."""
        cnt = next(p for p in self.cnt if abs(p.vdd - vdd) < 1e-9)
        si = next(p for p in self.silicon if abs(p.vdd - vdd) < 1e-9)
        return si.delay_s / cnt.delay_s

    def rows(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = [
            ("CNT tubes per trigate footprint", float(self.tubes_per_footprint))
        ]
        for name, points in (("CNT fabric", self.cnt), ("Si trigate", self.silicon)):
            for p in points:
                out.append((f"{name} @ {p.vdd:.1f} V: NM/VDD", p.nm_fraction))
                out.append((f"{name} @ {p.vdd:.1f} V: delay [ps]", p.delay_s * 1e12))
        out.append(("CNT min logic supply [V]", self.minimum_logic_supply("cnt")))
        out.append(("Si min logic supply [V]", self.minimum_logic_supply("silicon")))
        for vdd in (0.4, 1.0):
            out.append(
                (f"iso-footprint delay advantage @ {vdd:.1f} V", self.delay_advantage_at(vdd))
            )
        return out


def _scaling_point(
    vtc_device: FETModel, drive_device: FETModel, vdd: float
) -> ScalingPoint:
    v_in, v_out, _ = inverter_vtc(vtc_device, vdd=vdd, n_points=161)
    metrics = analyze_vtc(v_in, v_out)
    butterfly = butterfly_snm(v_in, v_out)
    nm = min(metrics.nm_low, metrics.nm_high)
    return ScalingPoint(
        vdd=vdd,
        nm_fraction=nm / vdd,
        snm_v=butterfly.snm,
        is_bistable=butterfly.is_bistable,
        delay_s=cv_over_i_delay_s(drive_device, LOAD_CAPACITANCE_F, vdd),
    )


def run_voltage_scaling(supplies_v=SUPPLIES_V) -> ScalingResult:
    """Sweep complementary inverters over supply voltage.

    The physical CNT-FET sits behind a 77 x 53 bilinear table that
    solves a node only when a VTC or drive evaluation first reads a
    cell around it, so the sweeps solve the few hundred nodes near
    their bias paths instead of the whole grid; the drive device is an
    iso-footprint fabric — as many tubes at 8 nm pitch as fit in the
    trigate's effective width.  Noise margins use the single-tube VTC
    (ratios are unchanged by parallel composition of identical tubes).
    """
    cnt_physical = CNTFET.reference_device()
    vgs_grid = np.linspace(-0.6, 1.3, 77)
    vds_grid = np.linspace(0.0, 1.3, 53)
    cnt = TabulatedFET.from_model(cnt_physical, vgs_grid, vds_grid)
    silicon = trigate_intel_22nm()
    tubes = max(1, int(silicon.effective_width_nm // FABRIC_PITCH_NM))
    fabric = CNTFabricFET([cnt] * tubes, n_metallic=0, pitch_nm=FABRIC_PITCH_NM)

    cnt_points = tuple(
        _scaling_point(cnt, fabric, float(vdd)) for vdd in supplies_v
    )
    si_points = tuple(
        _scaling_point(silicon, silicon, float(vdd)) for vdd in supplies_v
    )
    return ScalingResult(
        cnt=cnt_points, silicon=si_points, tubes_per_footprint=tubes
    )
