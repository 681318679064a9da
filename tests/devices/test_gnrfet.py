"""Ballistic GNR-FET and the CNT/GNR comparison of Fig. 1."""

import numpy as np
import pytest

from repro.analysis.iv import saturation_index
from repro.devices.gnrfet import GNRFET
from repro.physics.gnr import ArmchairGNR
from repro.transport.scattering import MeanFreePath, ballisticity


class TestConstruction:
    def test_rejects_quasi_metallic_ribbon(self):
        with pytest.raises(ValueError):
            GNRFET(ArmchairGNR(17))  # 3j+2 family

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            GNRFET(ArmchairGNR(18), channel_length_nm=-5.0)

    def test_mfp_override(self):
        clean = GNRFET(ArmchairGNR(18), channel_length_nm=100.0)
        dirty = GNRFET(ArmchairGNR(18), channel_length_nm=100.0, mfp_override_nm=20.0)
        assert dirty.params.transmission < clean.params.transmission

    def test_default_transmission_reads_the_acoustic_mean_free_path(self):
        ribbon = ArmchairGNR(18)
        device = GNRFET(ribbon, channel_length_nm=100.0)
        mfp = MeanFreePath(diameter_nm=max(ribbon.width_nm, 0.5)).acoustic_nm
        assert device.params.transmission == ballisticity(100.0, mfp)

    def test_mfp_override_validation(self):
        with pytest.raises(ValueError):
            GNRFET(ArmchairGNR(18), mfp_override_nm=0.0)

    def test_for_bandgap(self):
        device = GNRFET.for_bandgap(0.56)
        assert device.ribbon.bandgap_ev() == pytest.approx(0.56, abs=0.05)


class TestBehaviour:
    def test_saturating_output(self, reference_gnrfet):
        vds = np.linspace(0.0, 0.5, 26)
        curve = np.array([reference_gnrfet.current(0.5, float(v)) for v in vds])
        assert saturation_index(vds, curve) > 0.9

    def test_negative_vds_antisymmetry(self, reference_gnrfet):
        assert reference_gnrfet.current(0.4, -0.3) == pytest.approx(
            -reference_gnrfet.current(0.7, 0.3), rel=1e-9
        )


class TestFig1Comparison:
    """The equal-gap CNT/GNR comparison that motivates the paper's Fig. 1."""

    def test_log_scale_overlap(self, reference_cntfet, reference_gnrfet):
        vgs = np.linspace(0.1, 0.6, 11)
        cnt = np.array([reference_cntfet.current(float(v), 0.5) for v in vgs])
        gnr = np.array([reference_gnrfet.current(float(v), 0.5) for v in vgs])
        deviation = np.abs(np.log10(cnt / gnr))
        assert np.max(deviation) < 0.6  # well under a decade apart

    def test_linear_scale_small_gap_from_degeneracy(
        self, reference_cntfet, reference_gnrfet
    ):
        # CNT carries roughly 2x the GNR current (4-fold vs 2-fold modes).
        ratio = reference_cntfet.current(0.5, 0.5) / reference_gnrfet.current(0.5, 0.5)
        assert 1.2 < ratio < 3.0

    def test_same_subthreshold_physics(self, reference_cntfet, reference_gnrfet):
        ss_cnt = reference_cntfet.subthreshold_swing_mv_per_decade()
        vgs = np.linspace(0.0, 0.25, 26)
        gnr = np.array([reference_gnrfet.current(float(v), 0.5) for v in vgs])
        slopes = np.diff(vgs) / np.diff(np.log10(gnr))
        ss_gnr = float(np.min(slopes)) * 1e3
        assert ss_gnr == pytest.approx(ss_cnt, rel=0.1)
