"""Butterfly static noise margin on synthetic and device VTCs."""

import numpy as np
import pytest

from repro.analysis.snm import butterfly_snm
from repro.circuit.cells import inverter_vtc
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET


def steep_vtc(vdd=1.0, steepness=60.0, n=801):
    v_in = np.linspace(0.0, vdd, n)
    v_out = vdd / (1.0 + np.exp(steepness * (v_in - vdd / 2.0)))
    return v_in, v_out


class TestIdealisedCurves:
    def test_near_ideal_inverter_snm_approaches_half_vdd(self):
        v_in, v_out = steep_vtc(steepness=400.0)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm == pytest.approx(0.5, abs=0.03)

    def test_symmetric_curve_symmetric_lobes(self):
        v_in, v_out = steep_vtc(steepness=40.0)
        result = butterfly_snm(v_in, v_out)
        assert result.snm_low == pytest.approx(result.snm_high, abs=0.01)

    def test_steeper_is_better(self):
        soft = butterfly_snm(*steep_vtc(steepness=10.0))
        hard = butterfly_snm(*steep_vtc(steepness=100.0))
        assert hard.snm > soft.snm

    def test_sub_unity_gain_curve_not_bistable(self):
        # A straight line with |slope| < 1 crosses its mirror only once.
        v_in = np.linspace(0.0, 1.0, 101)
        v_out = 0.9 - 0.8 * v_in
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 0.5, 0.4, 0.8, 1.0], [1, 1, 1, 0, 0])


class TestDeviceVTCs:
    def test_saturating_inverter_latch_holds_state(self):
        v_in, v_out, _ = inverter_vtc(AlphaPowerFET(), vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm > 0.25

    def test_non_saturating_inverter_cannot_store(self):
        # The Fig. 2 argument taken to its storage conclusion: without
        # regeneration there is no bistability, hence no SRAM.
        device = NonSaturatingFET(vt=0.2, smoothing_v=0.3)
        v_in, v_out, _ = inverter_vtc(device, vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0
