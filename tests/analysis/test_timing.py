"""Timing/energy extraction from transients and first-order estimators."""

import numpy as np
import pytest

from repro.analysis.timing import (
    cv_over_i_delay_s,
    intrinsic_energy_delay,
    propagation_delays,
    supply_energy_j,
)
from repro.circuit.cells import build_inverter
from repro.circuit.netlist import SolutionLayout
from repro.circuit.transient import TransientResult, transient
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET


def synthetic_result():
    """Hand-built waveform pair: input rises at 1 ns, output falls at 1.2 ns."""
    t = np.linspace(0.0, 4e-9, 401)
    v_in = np.where(t > 1e-9, 1.0, 0.0) * np.where(t < 3e-9, 1.0, 0.0)
    v_out = 1.0 - np.where(t > 1.2e-9, 1.0, 0.0) * np.where(t < 3.3e-9, 1.0, 0.0)
    i_vdd = np.full_like(t, -1e-6)
    return TransientResult(
        layout=SolutionLayout(nodes={"in": 0, "out": 1}, branches={"VDD": 2}),
        samples=np.column_stack([v_in, v_out, i_vdd]),
        time_s=t,
    )


class TestPropagationDelays:
    def test_synthetic_delays(self):
        delays = propagation_delays(synthetic_result(), "in", "out", vdd=1.0)
        assert delays.tp_hl_s == pytest.approx(0.2e-9, abs=2e-11)
        assert delays.tp_lh_s == pytest.approx(0.3e-9, abs=2e-11)
        assert delays.average_s == pytest.approx(0.25e-9, abs=2e-11)

    def test_missing_transition_raises(self):
        t = np.linspace(0, 1e-9, 11)
        flat = TransientResult(
            layout=SolutionLayout(nodes={"in": 0, "out": 1}, branches={}),
            samples=np.column_stack([np.zeros_like(t), np.ones_like(t)]),
            time_s=t,
        )
        with pytest.raises(ValueError):
            propagation_delays(flat, "in", "out", vdd=1.0)

    def test_real_inverter_delay_scale(self):
        fet = AlphaPowerFET()
        stimulus = Pulse(
            v1=0.0, v2=1.0, delay_s=0.1e-9, rise_s=10e-12, fall_s=10e-12,
            width_s=1.5e-9, period_s=3e-9,
        )
        cell = build_inverter(
            fet, vdd=1.0, load_capacitance_f=10e-15, input_waveform=stimulus
        )
        result = transient(cell.circuit, 3e-9, 3e-12)
        delays = propagation_delays(result, "in", "out", 1.0)
        # CV/I scale: 10 fF * 1 V / ~0.2 mA ~ 50 ps; transient within 5x.
        estimate = cv_over_i_delay_s(fet, 10e-15, 1.0)
        assert delays.average_s < 5.0 * estimate
        assert delays.average_s > 0.1 * estimate


class TestSupplyEnergy:
    def test_constant_current_energy(self):
        result = synthetic_result()
        # 1 uA for 4 ns at 1 V -> 4 fJ.
        energy = supply_energy_j(result, "VDD", vdd=1.0)
        assert energy == pytest.approx(4e-15, rel=1e-6)

    def test_window_selection(self):
        result = synthetic_result()
        half = supply_energy_j(result, "VDD", 1.0, t_start_s=0.0, t_stop_s=2e-9)
        assert half == pytest.approx(2e-15, rel=1e-6)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            supply_energy_j(synthetic_result(), "VDD", 1.0, 1e-9, 1e-9)


class TestEstimators:
    def test_cv_over_i(self):
        fet = AlphaPowerFET()
        delay = cv_over_i_delay_s(fet, 10e-15, 1.0)
        assert delay == pytest.approx(10e-15 * 1.0 / fet.current(1.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            cv_over_i_delay_s(AlphaPowerFET(), 0.0, 1.0)

    def test_off_device_rejected(self):
        class DeadFET(AlphaPowerFET):
            def current(self, vgs, vds):
                return 0.0

        with pytest.raises(ValueError):
            cv_over_i_delay_s(DeadFET(), 1e-15, 1.0)

    def test_nearly_off_device_is_just_slow(self):
        # A real subthreshold device never carries exactly zero current;
        # the estimator returns a (huge) finite delay.
        slow = AlphaPowerFET(vt=5.0)
        assert cv_over_i_delay_s(slow, 1e-15, 1.0) > 1.0

    def test_energy_delay_pair(self):
        fet = AlphaPowerFET()
        energy, delay = intrinsic_energy_delay(fet, 10e-15, 1.0)
        assert energy == pytest.approx(10e-15)
        assert delay > 0.0


class TestTransientDelayCornerSweep:
    """Named corners time-stepped in one batched transient."""

    CORNERS = {"typical": (1.0, 0.0), "slow": (0.7, 0.05), "fast": (1.3, -0.05)}

    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.timing import transient_delay_corner_sweep

        return transient_delay_corner_sweep(AlphaPowerFET(), self.CORNERS)

    def test_labels_follow_input_order(self, sweep):
        assert sweep.labels == ("typical", "slow", "fast")
        assert sweep.n_valid == 3

    def test_slow_slower_than_typical_slower_than_fast(self, sweep):
        delays = dict(zip(sweep.labels, sweep.average_delays_s))
        assert delays["slow"] > delays["typical"] > delays["fast"]
        assert sweep.spread() == delays["slow"] / delays["fast"]

    def test_corner_that_never_switches_raises(self):
        from repro.analysis.timing import transient_delay_corner_sweep

        corners = {"typical": (1.0, 0.0), "stuck": (1.0, 5.0)}
        with pytest.raises(ValueError, match="'stuck'"):
            transient_delay_corner_sweep(AlphaPowerFET(), corners)

    def test_no_corners_rejected(self):
        from repro.analysis.timing import transient_delay_corner_sweep

        with pytest.raises(ValueError, match="at least one corner"):
            transient_delay_corner_sweep(AlphaPowerFET(), {})
