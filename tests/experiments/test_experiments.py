"""End-to-end figure pipelines: every paper claim, asserted.

These are the integration tests of the reproduction: each test states a
sentence from the paper and checks the regenerated experiment satisfies
it.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    run_ballisticity_ablation,
    run_contact_length_ablation,
    run_dark_space_ablation,
    run_fig1,
    run_fig2,
    run_fig4,
    run_fig6,
    run_integration_stats,
    run_table1,
)
from repro.physics.constants import subthreshold_limit_mv_per_decade
from repro.physics.electrostatics import CNT_CHANNEL, scale_length_nm


@pytest.fixture(scope="module")
def fig1():
    return run_fig1(n_points=31)


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(n_points=121)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(n_points=26)


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(n_points=121)


@pytest.fixture(scope="module")
def table1():
    return run_table1()


class TestFig1:
    def test_equal_band_gaps(self, fig1):
        # "a GNR with ... a band-gap of 0.56 eV ... CNT with the same band-gap"
        assert fig1.cnt_gap_ev == pytest.approx(0.56, abs=0.02)
        assert fig1.gnr_gap_ev == pytest.approx(fig1.cnt_gap_ev, abs=0.02)

    def test_log_scale_overlap(self, fig1):
        # "The data overlap on this scale for CNT and GNR."
        assert fig1.log_scale_max_deviation_decades < 0.5

    def test_small_linear_difference(self, fig1):
        # "only a small difference, which shows up in the linear plot"
        assert 1.2 < fig1.linear_scale_on_ratio < 3.0

    def test_simulated_devices_saturate(self, fig1):
        # The simulation's "current saturation at higher source-drain voltages".
        assert fig1.cnt_saturation > 0.9
        assert fig1.gnr_saturation > 0.9

    def test_real_gnr_never_saturates(self, fig1):
        # "No current saturation is observed in real GNRs at such low voltages."
        assert fig1.real_gnr_saturation < 0.05

    def test_two_real_gnr_gate_voltages(self, fig1):
        assert len(fig1.real_gnr_output_a) == 2


class TestFig2:
    def test_saturating_inverter_nearly_ideal(self, fig2):
        # "the inverter ... comes very close to the ideal behaviour"
        assert fig2.metrics_sat.max_abs_gain > 5.0
        assert fig2.metrics_sat.v_out_high == pytest.approx(1.0, abs=0.01)
        assert fig2.metrics_sat.v_out_low == pytest.approx(0.0, abs=0.01)

    def test_noise_margin_almost_04(self, fig2):
        # "The noise margin ... is almost 0.4 Volt at the high as well as
        # at the low voltage side."
        assert fig2.metrics_sat.nm_low == pytest.approx(0.4, abs=0.08)
        assert fig2.metrics_sat.nm_high == pytest.approx(0.4, abs=0.08)

    def test_symmetric_inverter_has_equal_noise_margins(self, fig2):
        # Matched n/p devices mirror the VTC about (VDD/2, VDD/2), so the
        # two margins agree to the sweep's solver precision.
        assert fig2.metrics_sat.nm_low == pytest.approx(fig2.metrics_sat.nm_high, rel=1e-9)

    def test_non_saturating_gain_below_unity(self, fig2):
        # "The absolute gain of this inverter never exceeds unity"
        assert fig2.metrics_lin.max_abs_gain < 1.0

    def test_non_saturating_noise_margin_zero(self, fig2):
        # "therefore the noise margin is almost zero"
        assert fig2.metrics_lin.nm_low == 0.0
        assert fig2.metrics_lin.nm_high == 0.0

    def test_dc_burn_through_transition(self, fig2):
        # "pFET and nFET are conductive almost during the whole transition"
        assert fig2.short_circuit_charge_ratio > 2.0

    def test_matched_on_currents(self, fig2):
        # Both device types deliver the same corner current by design.
        sat_on = fig2.output_family_sat[1.0][-1]
        lin_on = fig2.output_family_lin[1.0][-1]
        assert lin_on == pytest.approx(sat_on, rel=0.05)

    def test_dynamic_behaviour_sane(self, fig2):
        # 10 fF load at ~0.2 mA drive: tens of ps, a few fJ.
        assert 1e-12 < fig2.delay_sat_s < 1e-9
        assert 1e-16 < fig2.energy_sat_j < 1e-13


class TestFig4:
    def test_current_reduced(self, fig4):
        # "Not only is the current reduced in (b) ..."
        assert fig4.current_suppression > 3.0

    def test_shape_linearised(self, fig4):
        # "... also the shape of the I-V has changed to a more linear
        # characteristic with less saturation"
        assert fig4.ideal_saturation > 0.9
        assert fig4.contacted_saturation < 0.3

    def test_contacted_current_scale_set_by_resistance(self, fig4):
        # With 100 kOhm total the device approaches V/R behaviour.
        vg = fig4.top_gate_voltage
        i_max = fig4.contacted_family[vg][-1]
        assert i_max == pytest.approx(0.5 / 100e3, rel=0.2)


class TestFig6:
    def test_ss_near_measured_83(self, fig6):
        # "a SS of 83 mV/dec"; individual sweeps down to 32.
        assert 30.0 < fig6.ss_mv_per_decade < 110.0

    def test_on_current_density_order_1ma_per_um(self, fig6):
        # "on-current density is still in the range of 1 mA/um"
        density_ma_um = fig6.on_current_density_a_per_m * 1e-3
        assert 0.3 < density_ma_um < 30.0

    def test_sharp_reverse_turn_on(self, fig6):
        assert fig6.reverse_on_off_ratio > 1e3

    def test_forward_hardly_modulated(self, fig6):
        # "the application of the back voltage is hardly modulating"
        assert fig6.forward_gate_modulation < 1.3

    def test_beats_thermionic_tfet_expectation(self, fig6):
        # A TFET's merit: on-current far above classical-TFET pA levels.
        assert fig6.reverse_current_a.max() > 1e-6


class TestTable1:
    def test_trigate_66ua(self, table1):
        assert table1.trigate_current_a == pytest.approx(66e-6, rel=0.1)

    def test_cnt_20ua_at_06v(self, table1):
        assert table1.cnt_current_a == pytest.approx(20e-6, rel=0.3)

    def test_one_third_current_ratio(self, table1):
        # "almost 1/3 of the trigate's current"
        assert table1.current_ratio == pytest.approx(1.0 / 3.0, abs=0.12)

    def test_cross_section_over_300x(self, table1):
        # "more than 300 times bigger"
        assert table1.cross_section_ratio > 300.0

    def test_11kohm_series_resistance(self, table1):
        # "overall serial resistance ... as low as 11 kOhm"
        assert table1.series_resistance_ohm == pytest.approx(11e3, rel=0.15)

    def test_gnr_on_off_1e6(self, table1):
        # "Sub-10 nm width GNR show Ion/Ioff ratio of 1e6"
        assert table1.gnr_on_off_ratio > 1e5

    def test_gnr_2ma_per_um(self, table1):
        assert table1.gnr_density_ma_per_um == pytest.approx(2.0, rel=0.1)

    def test_gnr_still_no_saturation(self, table1):
        # "but fail to show current saturation"
        assert table1.gnr_saturation_index < 0.05

    def test_cnt_best_ss_at_9nm(self, table1):
        # Section III.C: no dark space -> best short-channel SS.
        assert table1.ss_cnt_9nm_mv < table1.ss_si_9nm_mv < table1.ss_inas_9nm_mv

    def test_cnt_dibl_from_the_ss_scale_length(self, table1):
        # Section I: the GAA scale length that sets the 9 nm SS leaves the
        # CNT-FET's DIBL negligible, room for further V_DD/L_g scaling.
        scale = scale_length_nm(CNT_CHANNEL, 0.7, geometry="gaa")
        decay = 2.0 * math.exp(-9.0 / (2.0 * scale))
        assert table1.ss_cnt_9nm_mv == pytest.approx(
            subthreshold_limit_mv_per_decade() / (1.0 - decay), rel=1e-12
        )
        assert table1.dibl_cnt_9nm_mv_per_v == pytest.approx(1000.0 * decay, rel=1e-12)
        assert table1.dibl_cnt_9nm_mv_per_v < 1e-6


class TestIntegrationStats:
    @pytest.fixture(scope="class")
    def stats(self):
        return run_integration_stats(n_array_devices=2000, n_functional_trials=30)

    def test_two_thirds_semiconducting(self, stats):
        assert stats.semiconducting_fraction == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_sorting_costs_material(self, stats):
        assert stats.passes_to_4nines >= 1
        assert 0.0 < stats.sorting_yield_4nines < 1.0

    def test_park_fill_over_90_percent(self, stats):
        assert stats.trench_fill_fraction > 0.9

    def test_removal_improves_computer_yield(self, stats):
        assert stats.computer_yield_with_removal > stats.computer_yield_no_removal

    def test_functional_yield_consistent_with_analytic(self, stats):
        # Program-level MC should not wildly contradict the analytic model.
        assert stats.functional_yield_mc >= stats.computer_yield_with_removal - 0.3

    def test_wafer_scale_needs_more_than_four_nines(self, stats):
        # Abstract: without high-yield wafer-scale integration SWCNT
        # circuits stay a dream.  Gel sorting to 99.99 % leaves 1e-4
        # metallic tubes, more than a 10^6-gate circuit can afford.
        assert 0.0 < stats.wafer_scale_metallic_budget < 1.0 - 0.9999


class TestAblations:
    def test_dark_space_penalty_ordering(self):
        ablation = run_dark_space_ablation()
        assert ablation.penalty_at(9.0, "InAs") > ablation.penalty_at(9.0, "Si") > 1.0

    def test_dark_space_penalty_vanishes_long_channel(self):
        ablation = run_dark_space_ablation(gate_lengths_nm=(9.0, 30.0))
        assert ablation.penalty_at(30.0, "InAs") < ablation.penalty_at(9.0, "InAs")

    def test_ballisticity_monotone(self):
        ablation = run_ballisticity_ablation()
        assert np.all(np.diff(ablation.transmission) < 0.0)
        assert np.all(np.diff(ablation.on_current_a) < 0.0)

    def test_contact_length_floor(self):
        ablation = run_contact_length_ablation()
        assert np.all(np.diff(ablation.series_resistance_ohm) < 0.0)
        assert ablation.series_resistance_ohm[-1] == pytest.approx(10.5e3, rel=0.1)
