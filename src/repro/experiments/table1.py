"""In-text numeric claims of the paper, collected as "Table 1".

The paper quotes several headline comparisons without tabulating them;
this module regenerates each:

* Intel trigate: ~66 uA at V_GS = V_DS = 1 V (fin 35 x 18 nm, L_g 30 nm);
* a ~1 nm-class CNT-FET delivers ~20 uA at V_DS = 0.6 V — almost 1/3 of
  the trigate current from a >300x smaller conduction cross-section;
* overall CNT-FET series resistance as low as ~11 kOhm (Ref. [16]);
* sub-10 nm GNR-FETs: I_on/I_off ~ 1e6 and ~2 mA/um at V_DS = 1 V, but
  no current saturation (Ref. [5]);
* the 9 nm CNT-FET's subthreshold swing beats what the dark-space trend
  predicts for high-mobility channels (Section III.C), and its DIBL from
  the same GAA scale length backs the abstract's claim that CNT-FETs
  allow further voltage and gate length scaling (Section I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.iv import ion_ioff_ratio, saturation_index
from repro.devices.base import output_curve, transfer_curve
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel
from repro.devices.empirical import NonSaturatingFET
from repro.devices.reference import trigate_intel_22nm
from repro.physics.electrostatics import (
    CNT_CHANNEL,
    INAS,
    SILICON,
    dibl_mv_per_v,
    scale_length_nm,
    subthreshold_swing_mv_per_decade,
)

__all__ = ["Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Result:
    """Every in-text numeric claim, regenerated."""

    trigate_current_a: float
    cnt_current_a: float
    cross_section_ratio: float
    series_resistance_ohm: float
    gnr_on_off_ratio: float
    gnr_density_ma_per_um: float
    gnr_saturation_index: float
    ss_cnt_9nm_mv: float
    ss_si_9nm_mv: float
    ss_inas_9nm_mv: float
    dibl_cnt_9nm_mv_per_v: float

    @property
    def current_ratio(self) -> float:
        """CNT (0.6 V) over trigate (1 V) current — paper: "almost 1/3"."""
        return self.cnt_current_a / self.trigate_current_a

    def rows(self) -> list[tuple[str, float, float]]:
        """(claim, paper value, measured value) rows."""
        return [
            ("trigate I(1V,1V) [uA]", 66.0, self.trigate_current_a * 1e6),
            ("CNT I(0.6V) [uA]", 20.0, self.cnt_current_a * 1e6),
            ("CNT/trigate current ratio", 1.0 / 3.0, self.current_ratio),
            ("cross-section ratio", 300.0, self.cross_section_ratio),
            ("CNT series resistance [kOhm]", 11.0, self.series_resistance_ohm / 1e3),
            ("GNR Ion/Ioff", 1e6, self.gnr_on_off_ratio),
            ("GNR density @1V [mA/um]", 2.0, self.gnr_density_ma_per_um),
            ("GNR saturation index", 0.0, self.gnr_saturation_index),
            ("9 nm SS: CNT [mV/dec]", 94.0, self.ss_cnt_9nm_mv),
            ("9 nm SS: Si [mV/dec]", float("nan"), self.ss_si_9nm_mv),
            ("9 nm SS: InAs [mV/dec]", float("nan"), self.ss_inas_9nm_mv),
            ("9 nm DIBL: CNT [mV/V]", float("nan"), self.dibl_cnt_9nm_mv_per_v),
        ]


def run_table1() -> Table1Result:
    """Regenerate every in-text claim of Sections II-III."""
    trigate = trigate_intel_22nm()
    cnt = CNTFET.reference_device()

    tube_cross_section_nm2 = math.pi * (cnt.chirality.diameter_nm / 2.0) ** 2
    cross_ratio = trigate.cross_section_nm2 / tube_cross_section_nm2

    # Long-contact series resistance floor (Franklin & Chen, Ref. [16]).
    series_r = ContactModel().device_series_resistance_ohm(contact_length_nm=500.0)

    # Sub-10 nm GNR device of Ref. [5]: w ~ 2 nm ribbon quoted per um width.
    gnr_width_um = 0.002
    gnr = NonSaturatingFET(
        g_on_s=2.0e-3 * gnr_width_um,  # 2 mA/um at 1 V
        vt=0.4,
        v_on=1.0,
        smoothing_v=0.035,
    )
    vgs = np.linspace(0.0, 1.0, 201)
    transfer = transfer_curve(gnr, vgs, 1.0)
    on_off = ion_ioff_ratio(vgs, transfer, v_off=0.0, v_on=1.0)
    density = gnr.current(1.0, 1.0) / gnr_width_um * 1e3  # [A/um] -> [mA/um]
    vds = np.linspace(0.0, 1.0, 101)
    output = output_curve(gnr, vds, 1.0)
    gnr_sat = saturation_index(vds, output)

    # Dark-space SS comparison at L = 9 nm, EOT 0.7 nm.
    eot = 0.7
    cnt_scale_nm = scale_length_nm(CNT_CHANNEL, eot, geometry="gaa")
    ss_cnt = subthreshold_swing_mv_per_decade(9.0, cnt_scale_nm)
    ss_si = subthreshold_swing_mv_per_decade(
        9.0, scale_length_nm(SILICON, eot, geometry="double-gate")
    )
    ss_inas = subthreshold_swing_mv_per_decade(
        9.0, scale_length_nm(INAS, eot, geometry="double-gate")
    )

    return Table1Result(
        trigate_current_a=trigate.current(1.0, 1.0),
        cnt_current_a=cnt.current(0.6, 0.6),
        cross_section_ratio=cross_ratio,
        series_resistance_ohm=series_r,
        gnr_on_off_ratio=on_off,
        gnr_density_ma_per_um=density,
        gnr_saturation_index=gnr_sat,
        ss_cnt_9nm_mv=ss_cnt,
        ss_si_9nm_mv=ss_si,
        ss_inas_9nm_mv=ss_inas,
        dibl_cnt_9nm_mv_per_v=dibl_mv_per_v(9.0, cnt_scale_nm),
    )
