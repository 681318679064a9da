"""Landauer transport: closed forms, conductance quanta, numeric integral.

The closed-form subband current is production code; the total current,
conductance and numeric integral come from :mod:`landauer_oracle`, which
checks it (and the top-of-barrier solver's sum of it) another way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauer_oracle import ballistic_current, numeric_landauer_current, quantum_conductance
from repro.physics.bands import BandStructure1D, Subband
from repro.physics.constants import G0, H, KB, Q
from repro.physics.electrostatics import gate_all_around_capacitance
from repro.transport.ballistic import BallisticParameters, TopOfBarrierSolver
from repro.transport.landauer import subband_ballistic_current


@pytest.fixture
def cnt_like_bands():
    return BandStructure1D(subbands=(Subband(0.28, 4), Subband(0.56, 4)))


class TestSubbandCurrent:
    def test_zero_bias_zero_current(self):
        assert subband_ballistic_current(0.28, 4, 0.0, 0.0) == pytest.approx(0.0)

    def test_sign_follows_bias(self):
        forward = subband_ballistic_current(0.28, 4, 0.0, -0.5)
        reverse = subband_ballistic_current(0.28, 4, -0.5, 0.0)
        assert forward > 0.0
        assert reverse == pytest.approx(-forward)

    def test_degenerate_limit_magnitude(self):
        # Deep degeneracy, full window: I -> g (q/h) * qV per subband.
        v = 0.2
        current = subband_ballistic_current(
            edge_ev=-2.0, degeneracy=4, mu_source_ev=0.0, mu_drain_ev=-v
        )
        assert current == pytest.approx(4 * Q * Q / H * v, rel=1e-3)

    def test_subthreshold_exponential(self):
        # Barrier far above mu: current scales as exp(-E_b / kT).
        i1 = subband_ballistic_current(0.3, 4, 0.0, -0.5)
        i2 = subband_ballistic_current(0.3 + 0.0595, 4, 0.0, -0.5)
        assert i1 / i2 == pytest.approx(10.0, rel=0.05)

    def test_transmission_scales_linearly(self):
        full = subband_ballistic_current(0.1, 4, 0.0, -0.5, transmission=1.0)
        half = subband_ballistic_current(0.1, 4, 0.0, -0.5, transmission=0.5)
        assert half == pytest.approx(full / 2.0)

    def test_transmission_validation(self):
        with pytest.raises(ValueError):
            subband_ballistic_current(0.1, 4, 0.0, -0.5, transmission=1.5)

    @given(st.floats(-0.2, 0.6), st.floats(0.01, 0.8))
    @settings(max_examples=30)
    def test_current_positive_for_forward_bias(self, edge, vds):
        assert subband_ballistic_current(edge, 4, 0.0, -vds) > 0.0


class TestTotalCurrent:
    def test_sums_over_subbands(self, cnt_like_bands):
        total = ballistic_current(cnt_like_bands, 0.0, 0.3, -0.2)
        parts = sum(
            subband_ballistic_current(b.edge_ev, b.degeneracy, 0.3, -0.2)
            for b in cnt_like_bands.subbands
        )
        assert total == pytest.approx(parts)

    def test_barrier_shift_suppresses(self, cnt_like_bands):
        low = ballistic_current(cnt_like_bands, 0.0, 0.3, -0.2)
        high = ballistic_current(cnt_like_bands, 0.2, 0.3, -0.2)
        assert high < low

    @pytest.mark.parametrize("vgs, vds", [(0.2, 0.05), (0.5, 0.4), (0.8, 0.6)])
    def test_matches_top_of_barrier_solver(self, cnt_like_bands, vgs, vds):
        # The solver's current is the subband sum at its solved barrier,
        # with edges measured from the source Fermi level.
        params = BallisticParameters(
            c_ins_f_per_m=gate_all_around_capacitance(1.0, 2.0, 16.0), transmission=0.8
        )
        op = TopOfBarrierSolver(cnt_like_bands, params).solve(vgs, vds)
        shift = op.barrier_ev - cnt_like_bands.subbands[0].edge_ev - params.ef_offset_ev
        reference = ballistic_current(
            cnt_like_bands, shift, 0.0, -vds, params.temperature_k, params.transmission
        )
        assert op.current_a == pytest.approx(reference, rel=1e-12)


class TestQuantumConductance:
    def test_step_heights(self, cnt_like_bands):
        # mu deep in band 1 only: 4 x (q^2/h) = 2 G0; both bands: 4 G0.
        g1 = quantum_conductance(cnt_like_bands, 0.42, temperature_k=1.0)
        g2 = quantum_conductance(cnt_like_bands, 2.0, temperature_k=1.0)
        assert g1 == pytest.approx(2 * G0, rel=1e-6)
        assert g2 == pytest.approx(4 * G0, rel=1e-6)

    def test_thermal_smearing_at_edge(self, cnt_like_bands):
        g = quantum_conductance(cnt_like_bands, 0.28, temperature_k=300.0)
        assert g == pytest.approx(G0, rel=0.01)  # half of the 2 G0 step

    def test_in_gap_small(self, cnt_like_bands):
        assert quantum_conductance(cnt_like_bands, 0.0) < 1e-3 * G0

    @pytest.mark.parametrize("mu_ev", [0.0, 0.28, 0.42, 0.7])
    def test_is_zero_bias_slope_of_closed_form(self, cnt_like_bands, mu_ev):
        dv = 1e-6
        current = sum(
            subband_ballistic_current(b.edge_ev, b.degeneracy, mu_ev, mu_ev - dv)
            for b in cnt_like_bands.subbands
        )
        assert current / dv == pytest.approx(
            quantum_conductance(cnt_like_bands, mu_ev), rel=1e-4
        )


class TestNumericLandauer:
    def test_matches_closed_form_for_step_transmission(self):
        edge = 0.1
        mu_s, mu_d = 0.2, -0.3

        def transmission(e):
            return np.where(e > edge, 1.0, 0.0)

        numeric = numeric_landauer_current(
            transmission, mu_s, mu_d, -0.8, 1.2, degeneracy=4, n_points=20001
        )
        closed = subband_ballistic_current(edge, 4, mu_s, mu_d)
        assert numeric == pytest.approx(closed, rel=1e-3)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            numeric_landauer_current(lambda e: e * 0 + 1, 0.0, -0.1, 0.5, 0.5)

    def test_negative_transmission_clipped(self):
        current = numeric_landauer_current(
            lambda e: e * 0 - 1.0, 0.0, -0.1, -0.5, 0.5
        )
        assert current == 0.0
