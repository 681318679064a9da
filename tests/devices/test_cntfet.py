"""Ballistic CNT-FET: construction, paper-anchored behaviour, scaling."""

import numpy as np
import pytest

from repro.analysis.iv import saturation_index
from repro.devices.cntfet import CNTFET
from repro.physics.cnt import Chirality
from repro.physics.electrostatics import gate_all_around_capacitance
from repro.transport.scattering import MeanFreePath, ballisticity


class TestConstruction:
    def test_rejects_metallic_tube(self):
        with pytest.raises(ValueError):
            CNTFET(Chirality(9, 9))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CNTFET(Chirality(15, 7), channel_length_nm=0.0)

    def test_for_bandgap_matches_target(self):
        device = CNTFET.for_bandgap(0.7)
        assert device.chirality.bandgap_ev() == pytest.approx(0.7, abs=0.05)

    def test_reference_device_is_paper_tube(self, reference_cntfet):
        assert reference_cntfet.chirality.bandgap_ev() == pytest.approx(0.56, abs=0.02)
        assert reference_cntfet.channel_length_nm == 20.0

    def test_transmission_in_unit_interval(self, reference_cntfet):
        assert 0.0 < reference_cntfet.transmission <= 1.0

    def test_gate_is_coaxial_gate_all_around(self):
        device = CNTFET(Chirality(15, 7), t_ox_nm=2.0, eps_ox=25.0)
        expected = gate_all_around_capacitance(
            Chirality(15, 7).diameter_nm, 2.0, 25.0
        )
        assert device.params.c_ins_f_per_m == expected

    def test_thinner_oxide_couples_the_gate_harder(self):
        thin = CNTFET(Chirality(15, 7), t_ox_nm=1.0)
        thick = CNTFET(Chirality(15, 7), t_ox_nm=5.0)
        assert thin.params.c_ins_f_per_m > thick.params.c_ins_f_per_m

    @pytest.mark.parametrize("temperature_k", [300.0, 400.0])
    def test_transmission_reads_the_acoustic_mean_free_path(self, temperature_k):
        device = CNTFET(
            Chirality(15, 7), channel_length_nm=50.0, temperature_k=temperature_k
        )
        mfp = MeanFreePath(
            diameter_nm=Chirality(15, 7).diameter_nm, temperature_k=temperature_k
        )
        assert device.mean_free_path == mfp
        assert device.transmission == ballisticity(50.0, mfp.acoustic_nm)


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
