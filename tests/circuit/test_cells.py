"""Standard cells: inverter VTC/transient, ring oscillator."""

import numpy as np
import pytest

from repro.analysis.timing import propagation_delays
from repro.analysis.vtc import analyze_vtc
from repro.circuit.cells import build_inverter, inverter_vtc
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET
from ring_oscillator import build_ring_oscillator, ring_oscillator_frequency


@pytest.fixture(scope="module")
def sat_fet():
    return AlphaPowerFET()


class TestInverterVTC:
    def test_rail_to_rail_with_saturating_devices(self, sat_fet):
        v_in, v_out, _ = inverter_vtc(sat_fet, vdd=1.0)
        assert v_out[0] == pytest.approx(1.0, abs=1e-3)
        assert v_out[-1] == pytest.approx(0.0, abs=1e-3)

    def test_monotone_decreasing(self, sat_fet):
        _, v_out, _ = inverter_vtc(sat_fet, vdd=1.0)
        assert np.all(np.diff(v_out) <= 1e-9)

    def test_symmetric_pair_switches_at_half_vdd(self, sat_fet):
        v_in, v_out, _ = inverter_vtc(sat_fet, vdd=1.0)
        metrics = analyze_vtc(v_in, v_out)
        assert metrics.switching_threshold_v == pytest.approx(0.5, abs=0.02)

    def test_supply_current_peaks_mid_transition(self, sat_fet):
        v_in, _, i_dd = inverter_vtc(sat_fet, vdd=1.0)
        peak_at = v_in[int(np.argmax(i_dd))]
        assert 0.3 < peak_at < 0.7
        assert i_dd[0] < np.max(i_dd) / 100.0  # rails draw ~no static current

    def test_non_saturating_draws_static_current_at_rails_midpoint(self):
        ns = NonSaturatingFET(vt=0.2, smoothing_v=0.3)
        v_in, v_out, i_dd = inverter_vtc(ns, vdd=1.0)
        # Conductive through the whole transition (paper's dc-burn point).
        mid = slice(40, 120)
        assert np.all(i_dd[mid] > 0.1 * np.max(i_dd))


class TestInverterTransient:
    def test_output_inverts_pulse(self, sat_fet):
        stimulus = Pulse(
            v1=0.0, v2=1.0, delay_s=0.1e-9, rise_s=10e-12, fall_s=10e-12,
            width_s=1e-9, period_s=2e-9,
        )
        cell = build_inverter(
            sat_fet, vdd=1.0, load_capacitance_f=10e-15, input_waveform=stimulus
        )
        result = transient(cell.circuit, 2e-9, 2e-12)
        delays = propagation_delays(result, "in", "out", vdd=1.0)
        assert 0.0 < delays.tp_hl_s < 0.5e-9
        assert 0.0 < delays.tp_lh_s < 0.5e-9

    def test_heavier_load_slower(self, sat_fet):
        def delay_for(load):
            stimulus = Pulse(
                v1=0.0, v2=1.0, delay_s=0.1e-9, rise_s=10e-12, fall_s=10e-12,
                width_s=2e-9, period_s=4e-9,
            )
            cell = build_inverter(
                sat_fet, vdd=1.0, load_capacitance_f=load, input_waveform=stimulus
            )
            result = transient(cell.circuit, 4e-9, 4e-12)
            return propagation_delays(result, "in", "out", 1.0).average_s

        assert delay_for(20e-15) > delay_for(5e-15)


class TestRingOscillator:
    def test_validation(self, sat_fet):
        with pytest.raises(ValueError):
            build_ring_oscillator(sat_fet, n_stages=4)
        with pytest.raises(ValueError):
            build_ring_oscillator(sat_fet, n_stages=1)

    def test_oscillates_and_frequency_positive(self, sat_fet):
        circuit = build_ring_oscillator(sat_fet, n_stages=3, stage_capacitance_f=2e-15)
        result = transient(circuit, 3e-9, 2e-12)
        v = result.voltage("n0")
        # Oscillation spans a healthy fraction of the supply.
        assert v.max() - v.min() > 0.5
        freq = ring_oscillator_frequency(result, "n0", vdd=1.0)
        assert 1e8 < freq < 1e11

    def test_more_stages_slower(self, sat_fet):
        def freq_for(stages):
            circuit = build_ring_oscillator(
                sat_fet, n_stages=stages, stage_capacitance_f=2e-15
            )
            result = transient(circuit, 6e-9, 4e-12)
            return ring_oscillator_frequency(result, "n0", vdd=1.0)

        assert freq_for(5) < freq_for(3)
