"""Mean free path and ballisticity models."""

import pytest
from hypothesis import given, strategies as st

from repro.transport.scattering import MeanFreePath, ballisticity


class TestMeanFreePath:
    def test_reference_values(self):
        mfp = MeanFreePath(diameter_nm=1.5, temperature_k=300.0)
        assert mfp.acoustic_nm == pytest.approx(300.0)

    def test_diameter_scaling(self):
        thin = MeanFreePath(diameter_nm=0.75)
        assert thin.acoustic_nm == pytest.approx(150.0)

    def test_temperature_scaling_acoustic(self):
        hot = MeanFreePath(temperature_k=600.0)
        assert hot.acoustic_nm == pytest.approx(150.0)

    @given(st.floats(0.1, 10.0), st.floats(10.0, 1000.0))
    def test_scales_with_diameter_over_temperature(self, diameter, temperature):
        mfp = MeanFreePath(diameter_nm=diameter, temperature_k=temperature)
        expected = 300.0 * (diameter / 1.5) * (300.0 / temperature)
        assert mfp.acoustic_nm == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeanFreePath(diameter_nm=0.0)
        with pytest.raises(ValueError):
            MeanFreePath(temperature_k=-5.0)


class TestBallisticity:
    def test_zero_length_fully_ballistic(self):
        assert ballisticity(0.0, 300.0) == 1.0

    def test_length_equal_mfp_gives_half(self):
        assert ballisticity(300.0, 300.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ballisticity(-1.0, 300.0)
        with pytest.raises(ValueError):
            ballisticity(10.0, 0.0)

    @given(st.floats(0.0, 1e4), st.floats(1.0, 1e3))
    def test_bounded_unit_interval(self, length, mfp):
        t = ballisticity(length, mfp)
        assert 0.0 < t <= 1.0

    @given(st.floats(1.0, 1e3))
    def test_monotone_decreasing_in_length(self, mfp):
        assert ballisticity(10.0, mfp) > ballisticity(100.0, mfp)
