"""RF metrics: intrinsic gain, f_T, f_max and the no-saturation collapse."""

import math

import numpy as np
import pytest

from repro.analysis.rf import rf_metrics, rf_metrics_batch
from repro.devices.base import FETModel
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET


@pytest.fixture
def saturating():
    return AlphaPowerFET()


@pytest.fixture
def linear():
    return NonSaturatingFET(g_on_s=4e-4, vt=0.2, smoothing_v=0.3)


def intrinsic_gain(device, vgs, vds):
    # A_v = gm / gds does not depend on the gate capacitance.
    return rf_metrics(device, vgs, vds, c_gate_total_f=60e-18).intrinsic_gain


class TestIntrinsicGain:
    def test_saturating_device_high_gain(self, saturating):
        assert intrinsic_gain(saturating, 0.8, 0.8) > 5.0

    def test_linear_device_gain_near_or_below_unity(self, linear):
        # gds = G(vgs) while gm = G'(vgs) * vds: gain ~ vds G'/G <~ 1.
        assert intrinsic_gain(linear, 0.8, 0.8) < 2.0

    def test_gain_improves_deeper_in_saturation(self, saturating):
        assert intrinsic_gain(saturating, 0.8, 0.9) > intrinsic_gain(
            saturating, 0.8, 0.3
        )


class TestRFMetrics:
    def test_ft_formula(self, saturating):
        metrics = rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=100e-18)
        assert metrics.ft_hz == pytest.approx(
            metrics.gm_s / (2 * math.pi * 100e-18), rel=1e-9
        )

    def test_smaller_gate_cap_faster(self, saturating):
        slow = rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=200e-18)
        fast = rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=50e-18)
        assert fast.ft_hz > slow.ft_hz

    def test_fmax_penalised_by_gate_resistance(self, saturating):
        low_rg = rf_metrics(
            saturating, 0.8, 0.8, c_gate_total_f=100e-18, gate_resistance_ohm=10.0
        )
        high_rg = rf_metrics(
            saturating, 0.8, 0.8, c_gate_total_f=100e-18, gate_resistance_ohm=1000.0
        )
        assert low_rg.fmax_hz > high_rg.fmax_hz

    def test_no_saturation_hurts_fmax_more_than_ft(self, saturating, linear):
        # The paper's Section II chain: both devices have comparable gm/C
        # (f_T), but the linear device's gds wrecks f_max.
        sat = rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=60e-18)
        lin = rf_metrics(linear, 0.8, 0.8, c_gate_total_f=60e-18)
        ft_ratio = sat.ft_hz / lin.ft_hz
        fmax_ratio = sat.fmax_hz / lin.fmax_hz
        assert fmax_ratio > ft_ratio
        assert sat.intrinsic_gain > 5.0 > lin.intrinsic_gain

    def test_validation(self, saturating):
        with pytest.raises(ValueError):
            rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=0.0)
        with pytest.raises(ValueError):
            rf_metrics(saturating, 0.8, 0.8, 100e-18, gate_resistance_ohm=0.0)
        with pytest.raises(ValueError):
            rf_metrics(saturating, 0.8, 0.8, 100e-18, c_gate_drain_f=200e-18)

    def test_off_device_rejected(self, saturating):
        # A bare FETModel: the default finite-difference linearization
        # sees the flat current (AlphaPowerFET's derivatives are analytic).
        class NoGm(FETModel):
            def current(self, vgs, vds):
                return 1e-6  # flat: zero transconductance

        with pytest.raises(ValueError):
            rf_metrics(NoGm(), 0.8, 0.8, 100e-18)


class TestAnalyticRouting:
    """The RF path must consume linearize, not its own FD stepping."""

    def test_no_finite_difference_probing(self, saturating):
        class AnalyticOnly(AlphaPowerFET):
            """Raises on any current probe; serves derivatives directly."""

            def current(self, vgs, vds):
                raise AssertionError("RF path fell back to FD current probes")

            def currents(self, vgs_values, vds_values):
                raise AssertionError("RF path fell back to FD current probes")

            def linearize(self, vgs_values, vds_values):
                shape = np.shape(vgs_values)
                return np.full(shape, 1e-4), np.full(shape, 5e-4), np.full(shape, 3e-5)

        metrics = rf_metrics(AnalyticOnly(), 0.8, 0.8, c_gate_total_f=60e-18)
        assert metrics.gm_s == pytest.approx(5e-4)
        assert metrics.gds_s == pytest.approx(3e-5)
        assert metrics.intrinsic_gain == pytest.approx(5e-4 / 3e-5)

    def test_small_signal_matches_protocol(self, saturating):
        metrics = rf_metrics(saturating, 0.8, 0.8, c_gate_total_f=60e-18)
        _, gm_ref, gds_ref = saturating.linearize_point(0.8, 0.8)
        assert metrics.gm_s == pytest.approx(gm_ref, rel=1e-15)
        assert metrics.gds_s == pytest.approx(gds_ref, rel=1e-15)


class TestRFMetricsBatch:
    def test_nominal_corners_match_scalar(self, saturating, linear):
        # The scalar call is the batch's one-corner call: bitwise, for
        # both the saturating and the non-saturating device.
        for device in (saturating, linear):
            scalar = rf_metrics(device, 0.8, 0.8, c_gate_total_f=60e-18)
            batch = rf_metrics_batch(
                device,
                0.8,
                0.8,
                60e-18,
                drive_scale=np.ones(5),
                vth_shift_v=np.zeros(5),
            )
            assert batch.n_instances == 5
            for i in range(batch.n_instances):
                assert batch.corner(i) == scalar
            np.testing.assert_array_equal(
                batch.intrinsic_gain, scalar.intrinsic_gain
            )

    def test_drive_scale_doubles_gm_keeps_gain(self, saturating):
        batch = rf_metrics_batch(
            saturating,
            0.8,
            0.8,
            60e-18,
            drive_scale=np.array([1.0, 2.0]),
            vth_shift_v=np.zeros(2),
        )
        # scale multiplies both gm and gds: f_T doubles, A_v unchanged.
        assert batch.gm_s[1] == pytest.approx(2.0 * batch.gm_s[0], rel=1e-12)
        assert batch.ft_hz[1] == pytest.approx(2.0 * batch.ft_hz[0], rel=1e-12)
        assert batch.intrinsic_gain[1] == pytest.approx(
            batch.intrinsic_gain[0], rel=1e-12
        )

    def test_vth_shift_follows_overdrive(self, saturating):
        shifted = rf_metrics_batch(
            saturating,
            0.8,
            0.8,
            60e-18,
            drive_scale=np.ones(2),
            vth_shift_v=np.array([0.0, 0.05]),
        )
        reference = rf_metrics(saturating, 0.75, 0.8, c_gate_total_f=60e-18)
        assert shifted.gm_s[1] == pytest.approx(reference.gm_s, rel=1e-9)

    def test_shape_mismatch_rejected(self, saturating):
        with pytest.raises(ValueError):
            rf_metrics_batch(
                saturating,
                0.8,
                0.8,
                60e-18,
                drive_scale=np.ones(3),
                vth_shift_v=np.zeros(2),
            )

    def test_parasitics_validated(self, saturating):
        with pytest.raises(ValueError):
            rf_metrics_batch(
                saturating,
                0.8,
                0.8,
                0.0,
                drive_scale=np.ones(2),
                vth_shift_v=np.zeros(2),
            )
