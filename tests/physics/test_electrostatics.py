"""Gate electrostatics: capacitances, dark space, scale length, SS/DIBL."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from band_oracle import quantum_capacitance_per_m
from repro.physics.cnt import Chirality
from repro.physics.constants import Q
from repro.physics.electrostatics import (
    CNT_CHANNEL,
    ChannelMaterial,
    EPS_SIO2,
    INAS,
    INGAAS,
    SILICON,
    barrier_control_factor,
    dibl_mv_per_v,
    gate_all_around_capacitance,
    inversion_eot_nm,
    ribbon_plate_capacitance,
    scale_length_nm,
    subthreshold_swing_mv_per_decade,
)
from repro.transport.ballistic import BallisticParameters, TopOfBarrierSolver


class TestGeometricCapacitances:
    def test_gaa_formula(self):
        # d = 1.5, t = 3, eps = 16: C' = 2 pi e0 16 / ln(5).
        expected = 2 * math.pi * 8.854e-12 * 16 / math.log(5.0)
        assert gate_all_around_capacitance(1.5, 3.0, 16.0) == pytest.approx(
            expected, rel=1e-3
        )

    def test_gaa_increases_with_eps_decreases_with_tox(self):
        base = gate_all_around_capacitance(1.5, 3.0, 16.0)
        assert gate_all_around_capacitance(1.5, 3.0, 25.0) > base
        assert gate_all_around_capacitance(1.5, 6.0, 16.0) < base

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gate_all_around_capacitance(-1.0, 3.0, 16.0)
        with pytest.raises(ValueError):
            gate_all_around_capacitance(1.5, 0.0, 16.0)

    def test_ribbon_capacitance_scales_with_width(self):
        narrow = ribbon_plate_capacitance(2.0, 3.0, 16.0)
        wide = ribbon_plate_capacitance(10.0, 3.0, 16.0)
        assert wide > narrow

    def test_ribbon_fringe_only_adds(self):
        bare = ribbon_plate_capacitance(5.0, 3.0, 16.0, fringe_factor=0.0)
        fringed = ribbon_plate_capacitance(5.0, 3.0, 16.0, fringe_factor=1.5)
        assert fringed > bare


class TestQuantumCapacitance:
    def test_small_far_below_band(self, chirality_056: Chirality):
        bands = chirality_056.band_structure(2)
        deep = quantum_capacitance_per_m(bands, -1.0)
        at_edge = quantum_capacitance_per_m(bands, bands.subbands[0].edge_ev)
        assert deep < at_edge / 1e3

    def test_order_of_magnitude_at_edge(self, chirality_056: Chirality):
        # C_Q of a CNT near the band edge is a few 1e-10 F/m (~4 pF/cm).
        bands = chirality_056.band_structure(2)
        cq = quantum_capacitance_per_m(bands, bands.subbands[0].edge_ev + 0.05)
        assert 1e-10 < cq < 3e-9

    def test_increases_with_occupancy(self, chirality_056: Chirality):
        bands = chirality_056.band_structure(2)
        edge = bands.subbands[0].edge_ev
        assert quantum_capacitance_per_m(bands, edge + 0.1) > quantum_capacitance_per_m(
            bands, edge - 0.2
        )

    @pytest.mark.parametrize("barrier_ev", [-0.6, -0.3, 0.0, 0.2])
    def test_is_solver_charge_derivative(self, chirality_056: Chirality, barrier_ev):
        # The barrier Newton's analytic dN/dU (128-point unit grid at 300 K, both
        # reservoirs at equilibrium) is -C_Q / q on a dense k grid.
        bands = chirality_056.band_structure(3)
        params = BallisticParameters(
            c_ins_f_per_m=gate_all_around_capacitance(chirality_056.diameter_nm, 2.0, 16.0)
        )
        solver = TopOfBarrierSolver(bands, params)
        barrier = np.array([barrier_ev])
        density, cache = solver._density_batch(barrier, np.zeros(1))
        dn_du = solver._density_derivative_batch(cache, np.ones(1, dtype=bool), density)
        # Edges sit at E_c1 - ef_offset + U above the source Fermi level.
        mu_ev = bands.subbands[0].edge_ev + params.ef_offset_ev - barrier_ev
        assert -Q * dn_du[0] == pytest.approx(
            quantum_capacitance_per_m(bands, mu_ev), rel=1e-9
        )


class TestDarkSpace:
    def test_cnt_has_no_dark_space(self):
        assert CNT_CHANNEL.dark_space_nm == 0.0
        assert inversion_eot_nm(0.7, CNT_CHANNEL) == pytest.approx(0.7)

    def test_penalty_ordering(self):
        # Low-DOS III-V materials pay the most (Skotnicki & Boeuf).
        eot = 0.7
        penalties = {
            m.name: inversion_eot_nm(eot, m) - eot for m in (SILICON, INGAAS, INAS)
        }
        assert penalties["Si"] < penalties["InGaAs"] < penalties["InAs"]

    def test_penalty_formula(self):
        mat = ChannelMaterial("X", eps_r=10.0, dark_space_nm=1.0)
        assert inversion_eot_nm(1.0, mat) == pytest.approx(1.0 + EPS_SIO2 / 10.0)

    def test_rejects_bad_eot(self):
        with pytest.raises(ValueError):
            inversion_eot_nm(0.0, SILICON)

    def test_material_validation(self):
        with pytest.raises(ValueError):
            ChannelMaterial("bad", eps_r=-1.0, dark_space_nm=0.5)


class TestScaleLength:
    def test_geometry_hierarchy(self):
        # GAA < double gate < planar — Section III.A's scaling argument.
        planar = scale_length_nm(SILICON, 0.7, "planar")
        double = scale_length_nm(SILICON, 0.7, "double-gate")
        gaa = scale_length_nm(SILICON, 0.7, "gaa")
        assert gaa < double < planar

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            scale_length_nm(SILICON, 0.7, "tri-something")

    def test_cnt_shortest_scale_length(self):
        cnt = scale_length_nm(CNT_CHANNEL, 0.7, "gaa")
        si = scale_length_nm(SILICON, 0.7, "gaa")
        inas = scale_length_nm(INAS, 0.7, "gaa")
        assert cnt < si < inas


class TestSSandDIBL:
    def test_long_channel_reaches_thermal_limit(self):
        ss = subthreshold_swing_mv_per_decade(1000.0, 5.0)
        assert ss == pytest.approx(59.5, abs=1.0)

    def test_short_channel_degrades(self):
        long_ss = subthreshold_swing_mv_per_decade(100.0, 5.0)
        short_ss = subthreshold_swing_mv_per_decade(10.0, 5.0)
        assert short_ss > long_ss

    def test_body_factor_multiplies(self):
        base = subthreshold_swing_mv_per_decade(100.0, 5.0)
        assert subthreshold_swing_mv_per_decade(
            100.0, 5.0, body_factor=1.3
        ) == pytest.approx(1.3 * base)

    def test_body_factor_validation(self):
        with pytest.raises(ValueError):
            subthreshold_swing_mv_per_decade(100.0, 5.0, body_factor=0.9)

    def test_dibl_decays_with_length(self):
        assert dibl_mv_per_v(10.0, 5.0) > dibl_mv_per_v(30.0, 5.0)

    def test_dibl_capped_at_1000(self):
        assert dibl_mv_per_v(0.1, 100.0) == pytest.approx(1000.0)

    @given(st.floats(5.0, 100.0), st.floats(1.0, 10.0))
    def test_barrier_control_in_unit_interval(self, length, lam):
        control = barrier_control_factor(length, lam)
        assert 0.0 < control <= 1.0

    @given(st.floats(5.0, 100.0), st.floats(1.0, 10.0))
    def test_ss_never_below_thermal_limit(self, length, lam):
        assert subthreshold_swing_mv_per_decade(length, lam) >= 59.0
