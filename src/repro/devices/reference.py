"""Reference silicon / III-V devices calibrated to published headline numbers.

Section III.E of the paper benchmarks the CNT-FET against:

Intel's 22 nm-class **trigate** transistor — fin height 35 nm, bottom
fin width 18 nm, 30 nm gate length, delivering ~66 uA at
V_DS = V_GS = 1 V.  It is an empirical compact model (alpha-power law)
with parameters chosen so that the headline operating point quoted in
the paper is met; it exists to reproduce comparisons, not to design
silicon.  The measured InAs/InGaAs HEMT field of del Alamo's review
(Ref. [18]) is data, in :mod:`repro.benchmarking.datasets`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import FETModel
from repro.devices.empirical import AlphaPowerFET

__all__ = ["TrigateFET", "trigate_intel_22nm"]


@dataclass(frozen=True)
class TrigateFET(FETModel):
    """A fin-geometry silicon FET wrapping an alpha-power-law core.

    The effective electrical width of one fin is W_eff = 2 H_fin + W_fin
    (three conducting faces).  ``cross_section_nm2`` exposes the fin's
    physical conduction cross-section, used for the paper's ">300x
    cross-section" comparison against a ~1 nm tube.
    """

    fin_height_nm: float = 35.0
    fin_width_nm: float = 18.0
    gate_length_nm: float = 30.0
    core: AlphaPowerFET = AlphaPowerFET(
        k_a_per_v_alpha=1.04e-4,
        vt=0.30,
        alpha=1.35,
        sat_fraction=0.5,
        channel_modulation=0.08,
        subthreshold_ideality=1.25,
    )

    @property
    def effective_width_nm(self) -> float:
        """Electrical width of one fin: 2 H + W [nm]."""
        return 2.0 * self.fin_height_nm + self.fin_width_nm

    @property
    def cross_section_nm2(self) -> float:
        """Physical conduction cross-section H x W of the fin [nm^2]."""
        return self.fin_height_nm * self.fin_width_nm

    def current(self, vgs: float, vds: float) -> float:
        return self.core.current(vgs, vds)

    def _forward_currents(self, vgs_values, vds_values):
        # Forward-quadrant delegation to the alpha-power core; the base
        # ``currents`` applies the shared mirror transform exactly once.
        return self.core._forward_currents(vgs_values, vds_values)

    def linearize(self, vgs_values, vds_values):
        return self.core.linearize(vgs_values, vds_values)

    def current_density_a_per_m(self, vgs: float, vds: float) -> float:
        """Current per effective width [A/m]."""
        return self.current(vgs, vds) / (self.effective_width_nm * 1e-9)


def trigate_intel_22nm() -> TrigateFET:
    """The paper's trigate comparison device: ~66 uA at V_GS = V_DS = 1 V."""
    return TrigateFET()
