"""Section II's RF argument: no saturation, no f_max — now over corners.

Compares a saturating (CNT-like) FET against the non-saturating
(measured-GNR-like) FET at the same bias and gate capacitance, and
verifies the causal chain the paper lays out: missing saturation ->
gds ~ gm -> intrinsic gain below unity -> f_max collapses relative to
f_T, while f_T itself (set by gm / C_gg) barely differs.

The nominal-point table survives unchanged; on top of it the
experiment now reports *distributions* over process variation, which
is what makes the argument robust rather than anecdotal:

- device-level f_T / f_max / intrinsic-gain corners through one
  batched linearization per device
  (:func:`repro.analysis.rf.rf_metrics_batch`), and
- circuit-level frequency responses of a complementary inverter built
  from each device, swept through the compiled batched AC path
  (:func:`repro.circuit.ac.ac_monte_carlo`): the saturating inverter
  holds gain above unity across every corner and reports a unity-gain
  frequency distribution; the non-saturating inverter's gain sits
  below unity at *every* corner, so no amount of process luck rescues
  f_max.

All draws are seed-pinned, so the distribution rows are deterministic
and golden-testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.rf import RFDistribution, RFMetrics, rf_metrics, rf_metrics_batch
from repro.circuit.ac import ac_monte_carlo
from repro.circuit.cells import build_inverter
from repro.circuit.sweep import FETVariation
from repro.circuit.waveforms import DC
from repro.devices.base import FETModel
from repro.experiments.fig2 import non_saturating_fet, saturating_fet

__all__ = ["RFComparisonResult", "run_rf_comparison"]

BIAS_VGS = 0.8
BIAS_VDS = 0.8
GATE_CAPACITANCE_F = 60e-18  # ~60 aF: a short-gate nano-FET

# Process-variation ensemble: one seed per device type so the two
# distributions are independent draws, sigmas in line with the
# variability experiments elsewhere in the repo.
VARIATION_SEED_SAT = 20140314
VARIATION_SEED_NONSAT = 20140315
N_VARIATION = 64
DRIVE_SIGMA = 0.10
VTH_SIGMA_V = 0.01

# Circuit-level AC: complementary inverter biased mid-rail (both FETs
# conducting — the high-gain region), swept 1 MHz .. 1 THz.
INVERTER_BIAS_V = 0.5
AC_FREQUENCIES_HZ = np.logspace(6, 12, 49)


@dataclass(frozen=True)
class RFComparisonResult:
    """Nominal RF metrics plus variation distributions for both devices."""

    saturating: RFMetrics
    non_saturating: RFMetrics
    saturating_corners: RFDistribution
    non_saturating_corners: RFDistribution
    sat_ac_gain: np.ndarray
    sat_ac_unity_hz: np.ndarray
    nonsat_ac_gain: np.ndarray

    @property
    def fmax_ratio(self) -> float:
        return self.saturating.fmax_hz / self.non_saturating.fmax_hz

    def rows(self) -> list[tuple[str, float]]:
        sat = self.saturating_corners
        nonsat = self.non_saturating_corners
        sat_unity = self.sat_ac_unity_hz[np.isfinite(self.sat_ac_unity_hz)]
        return [
            ("saturating: gm [uS]", self.saturating.gm_s * 1e6),
            ("saturating: gds [uS]", self.saturating.gds_s * 1e6),
            ("saturating: intrinsic gain", self.saturating.intrinsic_gain),
            ("saturating: f_T [GHz]", self.saturating.ft_hz / 1e9),
            ("saturating: f_max [GHz]", self.saturating.fmax_hz / 1e9),
            ("non-saturating: intrinsic gain", self.non_saturating.intrinsic_gain),
            ("non-saturating: f_T [GHz]", self.non_saturating.ft_hz / 1e9),
            ("non-saturating: f_max [GHz]", self.non_saturating.fmax_hz / 1e9),
            ("f_max ratio (sat / non-sat)", self.fmax_ratio),
            ("saturating: f_T mean [GHz]", float(sat.ft_hz.mean()) / 1e9),
            ("saturating: f_T std [GHz]", float(sat.ft_hz.std()) / 1e9),
            ("saturating: f_max mean [GHz]", float(sat.fmax_hz.mean()) / 1e9),
            ("saturating: f_max std [GHz]", float(sat.fmax_hz.std()) / 1e9),
            ("saturating: gain mean", float(sat.intrinsic_gain.mean())),
            ("saturating: gain std", float(sat.intrinsic_gain.std())),
            ("non-saturating: gain mean", float(nonsat.intrinsic_gain.mean())),
            ("non-saturating: gain std", float(nonsat.intrinsic_gain.std())),
            ("non-saturating: f_max mean [GHz]", float(nonsat.fmax_hz.mean()) / 1e9),
            ("inverter AC sat: low-f gain mean", float(self.sat_ac_gain.mean())),
            ("inverter AC sat: low-f gain std", float(self.sat_ac_gain.std())),
            ("inverter AC sat: unity-gain mean [GHz]", float(sat_unity.mean()) / 1e9),
            ("inverter AC sat: unity-gain std [GHz]", float(sat_unity.std()) / 1e9),
            ("inverter AC non-sat: low-f gain mean", float(self.nonsat_ac_gain.mean())),
            (
                "inverter AC non-sat: below-unity fraction",
                float(np.mean(self.nonsat_ac_gain < 1.0)),
            ),
        ]


def _device_corners(device: FETModel, seed: int) -> RFDistribution:
    """Device-level RF distribution: one batched linearization per device."""
    variation = FETVariation.sample(
        N_VARIATION, 1, seed=seed, drive_sigma=DRIVE_SIGMA, vth_sigma_v=VTH_SIGMA_V
    )
    return rf_metrics_batch(
        device,
        BIAS_VGS,
        BIAS_VDS,
        GATE_CAPACITANCE_F,
        drive_scale=variation.drive_scale[:, 0],
        vth_shift_v=variation.vth_shift_v[:, 0],
    )


def _inverter_ac_distribution(
    nfet: FETModel, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(low-frequency gain, unity-gain frequency) per corner of an inverter.

    Builds a complementary inverter biased mid-rail and sweeps every
    process corner through the compiled batched AC path — batched DC
    operating points, one stacked linearization, one Schur sweep per
    corner.  Unity-gain frequencies are NaN where the corner never
    crosses unity (the non-saturating case, by the paper's argument).
    """
    cell = build_inverter(nfet, input_waveform=DC(INVERTER_BIAS_V))
    variation = FETVariation.sample(
        N_VARIATION, 2, seed=seed, drive_sigma=DRIVE_SIGMA, vth_sigma_v=VTH_SIGMA_V
    )
    result = ac_monte_carlo(cell.circuit, "VIN", AC_FREQUENCIES_HZ, variation)
    return (
        result.low_frequency_gain(cell.output_node),
        result.unity_gain_frequencies_hz(cell.output_node),
    )


def run_rf_comparison() -> RFComparisonResult:
    """Evaluate both device types: nominal bias point plus variation corners."""
    sat_device = saturating_fet()
    nonsat_device = non_saturating_fet()
    saturating = rf_metrics(sat_device, BIAS_VGS, BIAS_VDS, GATE_CAPACITANCE_F)
    non_saturating = rf_metrics(nonsat_device, BIAS_VGS, BIAS_VDS, GATE_CAPACITANCE_F)
    sat_gain, sat_unity = _inverter_ac_distribution(sat_device, VARIATION_SEED_SAT)
    nonsat_gain, _ = _inverter_ac_distribution(nonsat_device, VARIATION_SEED_NONSAT)
    return RFComparisonResult(
        saturating=saturating,
        non_saturating=non_saturating,
        saturating_corners=_device_corners(sat_device, VARIATION_SEED_SAT),
        non_saturating_corners=_device_corners(nonsat_device, VARIATION_SEED_NONSAT),
        sat_ac_gain=sat_gain,
        sat_ac_unity_hz=sat_unity,
        nonsat_ac_gain=nonsat_gain,
    )
