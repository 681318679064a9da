"""Source waveforms: DC and pulse."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.waveforms import DC, Pulse


class TestDC:
    def test_constant(self):
        wf = DC(1.5)
        assert wf.value(0.0) == 1.5
        assert wf.value(1e9) == 1.5
        assert wf.dc == 1.5

    def test_default_level_is_zero(self):
        assert DC().dc == 0.0
        assert DC().value(1e-9) == 0.0


class TestPulse:
    @pytest.fixture
    def pulse(self):
        return Pulse(
            v1=0.0, v2=1.0, delay_s=1e-9, rise_s=1e-10, fall_s=1e-10,
            width_s=1e-9, period_s=4e-9,
        )

    def test_before_delay(self, pulse):
        assert pulse.value(0.5e-9) == 0.0

    def test_mid_rise(self, pulse):
        assert pulse.value(1e-9 + 0.5e-10) == pytest.approx(0.5)

    def test_high_plateau(self, pulse):
        assert pulse.value(1e-9 + 1e-10 + 0.5e-9) == 1.0

    def test_mid_fall(self, pulse):
        t = 1e-9 + 1e-10 + 1e-9 + 0.5e-10
        assert pulse.value(t) == pytest.approx(0.5)

    def test_low_after_fall(self, pulse):
        assert pulse.value(1e-9 + 3e-9) == 0.0

    def test_periodicity(self, pulse):
        t = 1e-9 + 0.7e-9
        assert pulse.value(t) == pytest.approx(pulse.value(t + 4e-9))

    def test_dc_is_initial_level(self, pulse):
        assert pulse.dc == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Pulse(0.0, 1.0, rise_s=0.0)
        with pytest.raises(ValueError):
            Pulse(0.0, 1.0, rise_s=1e-9, fall_s=1e-9, width_s=1e-9, period_s=1e-9)

    def test_single_pulse_stays_low_after_fall(self):
        wf = Pulse(0.0, 1.0, delay_s=1e-9, rise_s=1e-10, fall_s=1e-10, width_s=1e-9)
        assert wf.value(1e-9 + 0.5e-9) == 1.0
        assert wf.value(1e-9 + 3e-9) == 0.0
        assert wf.value(1e-9 + 4e-9 + 0.5e-9) == 0.0  # no repeat

    def test_falling_pulse_mirrors_rising(self):
        wf = Pulse(1.0, 0.0, rise_s=1e-10, fall_s=1e-10, width_s=1e-9)
        assert wf.dc == 1.0
        assert wf.value(0.5e-10) == pytest.approx(0.5)
        assert wf.value(0.5e-9) == 0.0
        assert wf.value(1e-9 + 1.5e-10) == pytest.approx(0.5)

    def test_zero_width_is_a_triangle(self):
        wf = Pulse(0.0, 1.0, rise_s=1e-9, fall_s=1e-9, width_s=0.0)
        assert wf.value(0.5e-9) == pytest.approx(0.5)
        assert wf.value(1e-9) == pytest.approx(1.0)
        assert wf.value(1.5e-9) == pytest.approx(0.5)
        assert wf.value(2e-9) == 0.0

    def test_period_of_exactly_one_pulse_accepted(self):
        # Binary fractions, so rise + width + fall sums to the period exactly.
        wf = Pulse(0.0, 1.0, rise_s=0.25, fall_s=0.25, width_s=0.5, period_s=1.0)
        assert wf.value(0.5) == 1.0
        assert wf.value(1.5) == 1.0
        assert wf.value(1.125) == pytest.approx(0.5)

    def test_edges_are_continuous(self, pulse):
        rise_end = 1e-9 + 1e-10
        fall_end = rise_end + 1e-9 + 1e-10
        eps = 1e-15
        assert pulse.value(rise_end - eps) == pytest.approx(1.0, abs=1e-4)
        assert pulse.value(fall_end - eps) == pytest.approx(0.0, abs=1e-4)

    @given(st.floats(-1e-8, 1e-7))
    def test_bounded_by_its_levels(self, t):
        wf = Pulse(
            v1=-0.2, v2=0.8, delay_s=1e-9, rise_s=1e-10, fall_s=2e-10,
            width_s=1e-9, period_s=4e-9,
        )
        assert -0.2 <= wf.value(t) <= 0.8
