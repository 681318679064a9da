"""Reference Si/III-V devices: calibration to the paper's quoted numbers."""

import math

import pytest

from repro.devices.reference import trigate_intel_22nm


class TestTrigate:
    def test_headline_current(self):
        # Paper: "~66 uA at VDS = 1 V and VGS = 1 V".
        trigate = trigate_intel_22nm()
        assert trigate.current(1.0, 1.0) == pytest.approx(66e-6, rel=0.1)

    def test_geometry_matches_paper(self):
        trigate = trigate_intel_22nm()
        assert trigate.fin_height_nm == 35.0
        assert trigate.fin_width_nm == 18.0
        assert trigate.gate_length_nm == 30.0

    def test_effective_width(self):
        assert trigate_intel_22nm().effective_width_nm == pytest.approx(88.0)

    def test_cross_section_vs_cnt(self):
        # Paper: trigate cross-section > 300x that of a ~1.5 nm tube.
        trigate = trigate_intel_22nm()
        tube_area = math.pi * (1.5 / 2.0) ** 2
        assert trigate.cross_section_nm2 / tube_area > 300.0

    def test_current_density_normalisation(self):
        trigate = trigate_intel_22nm()
        density = trigate.current_density_a_per_m(1.0, 1.0)
        assert density == pytest.approx(trigate.current(1.0, 1.0) / 88e-9)

    def test_saturating_behaviour(self):
        trigate = trigate_intel_22nm()
        i_knee = trigate.current(1.0, 0.6)
        i_full = trigate.current(1.0, 1.0)
        assert (i_full - i_knee) / i_full < 0.2
