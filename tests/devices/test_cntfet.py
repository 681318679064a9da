"""Ballistic CNT-FET: construction, paper-anchored behaviour, scaling."""

import numpy as np
import pytest

from repro.analysis.iv import saturation_index
from repro.devices.cntfet import CNTFET
from repro.physics.cnt import Chirality


class TestConstruction:
    def test_rejects_metallic_tube(self):
        with pytest.raises(ValueError):
            CNTFET(Chirality(9, 9))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CNTFET(Chirality(15, 7), channel_length_nm=0.0)

    def test_rejects_unknown_geometry(self):
        with pytest.raises(ValueError):
            CNTFET(Chirality(15, 7), gate_geometry="trigate")

    def test_for_bandgap_matches_target(self):
        device = CNTFET.for_bandgap(0.7)
        assert device.chirality.bandgap_ev() == pytest.approx(0.7, abs=0.05)

    def test_reference_device_is_paper_tube(self, reference_cntfet):
        assert reference_cntfet.chirality.bandgap_ev() == pytest.approx(0.56, abs=0.02)
        assert reference_cntfet.channel_length_nm == 20.0

    def test_transmission_in_unit_interval(self, reference_cntfet):
        assert 0.0 < reference_cntfet.transmission <= 1.0

    def test_back_gate_weaker_than_gaa(self):
        gaa = CNTFET(Chirality(15, 7), gate_geometry="gaa")
        back = CNTFET(Chirality(15, 7), gate_geometry="back-gate")
        assert back.params.c_ins_f_per_m < gaa.params.c_ins_f_per_m


class TestPaperAnchors:
    def test_on_current_20ua_class(self, reference_cntfet):
        # Section III.E: ~20 uA at V_DS = 0.6 V for a ~1 nm-class device.
        i_on = reference_cntfet.current(0.6, 0.6)
        assert 10e-6 < i_on < 40e-6

    def test_output_saturates(self, reference_cntfet):
        vds = np.linspace(0.0, 0.5, 26)
        curve = np.array([reference_cntfet.current(0.6, float(v)) for v in vds])
        assert saturation_index(vds, curve) > 0.9

    def test_subthreshold_swing_near_ideal(self, reference_cntfet):
        ss = reference_cntfet.subthreshold_swing_mv_per_decade()
        assert 59.0 < ss < 80.0

    def test_on_off_ratio_logic_grade(self, reference_cntfet):
        ratio = reference_cntfet.current(0.6, 0.5) / reference_cntfet.current(0.0, 0.5)
        assert ratio > 1e4

    def test_current_density_diameter_normalised(self, reference_cntfet):
        density = reference_cntfet.current_density_a_per_m(0.6, 0.5)
        # A good CNT-FET carries mA/um-class densities by this metric.
        assert density > 1e3  # 1 mA/um = 1e3 A/m

    def test_density_with_explicit_pitch(self, reference_cntfet):
        d1 = reference_cntfet.current_density_a_per_m(0.6, 0.5)
        d2 = reference_cntfet.current_density_a_per_m(0.6, 0.5, pitch_nm=5.0)
        assert d2 < d1  # wider pitch dilutes the density

    def test_pitch_validation(self, reference_cntfet):
        with pytest.raises(ValueError):
            reference_cntfet.current_density_a_per_m(0.6, 0.5, pitch_nm=0.0)


class TestSymmetryAndScaling:
    def test_negative_vds_antisymmetry(self, reference_cntfet):
        forward = reference_cntfet.current(0.9, 0.4)
        backward = reference_cntfet.current(0.5, -0.4)
        assert backward == pytest.approx(-forward, rel=1e-9)

    def test_zero_vds_zero_current(self, reference_cntfet):
        assert reference_cntfet.current(0.6, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_longer_channel_less_current(self):
        short = CNTFET(Chirality(15, 7), channel_length_nm=20.0)
        long = CNTFET(Chirality(15, 7), channel_length_nm=300.0)
        assert long.current(0.6, 0.5) < short.current(0.6, 0.5)
        assert long.transmission < short.transmission

    def test_repr_mentions_chirality(self, reference_cntfet):
        assert "15" in repr(reference_cntfet)
