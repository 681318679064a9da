"""Two-band tunneling: imaginary dispersion, WKB, junction profiles.

The exact transmission and the energy rule are checked against the
adaptive-quadrature references of ``tunneling_oracle``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.tfet import CNTTunnelFET
from repro.physics.cnt import chirality_for_gap
from repro.physics.constants import HBAR, Q, VFERMI
from repro.transport.tunneling import (
    JunctionProfile,
    junction_btbt_integral_ev,
    junction_btbt_transmission,
    wkb_transmission_uniform_field,
)
from tunneling_oracle import (
    imaginary_dispersion_per_m,
    kappa_per_nm,
    midgap_ev,
    quad_btbt_current_a,
    quad_transmission,
    quad_window_integral_ev,
)

# Measured worst relative errors against the oracle, with margin: T(E)
# (closed-form action) and the energy rule over the tunnel window.
TRANSMISSION_RTOL = 1e-10
CURRENT_RTOL = 1e-8

class TestImaginaryDispersion:
    def test_maximum_at_midgap(self):
        gap = 0.56
        kappa_mid = imaginary_dispersion_per_m(0.0, gap)
        expected = (gap / 2.0) * Q / (HBAR * VFERMI)
        assert kappa_mid == pytest.approx(expected, rel=1e-9)

    def test_vanishes_at_band_edges(self):
        gap = 0.56
        assert imaginary_dispersion_per_m(gap / 2.0, gap) == pytest.approx(0.0)
        assert imaginary_dispersion_per_m(-gap / 2.0, gap) == pytest.approx(0.0)

    def test_zero_outside_gap(self):
        assert imaginary_dispersion_per_m(1.0, 0.56) == 0.0

    def test_symmetric_in_energy(self):
        gap = 0.56
        assert imaginary_dispersion_per_m(0.1, gap) == pytest.approx(
            imaginary_dispersion_per_m(-0.1, gap)
        )

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            imaginary_dispersion_per_m(0.0, -1.0)

    @given(st.floats(0.2, 1.5))
    def test_scale_with_gap(self, gap):
        # kappa_max grows linearly with the gap.
        assert imaginary_dispersion_per_m(0.0, gap) == pytest.approx(
            gap / 2.0 * Q / (HBAR * VFERMI)
        )


class TestUniformFieldWKB:
    def test_analytic_value(self):
        gap, field = 0.56, 2e8
        expected = math.exp(
            -math.pi * (gap * Q) ** 2 / (4 * HBAR * VFERMI * Q * field)
        )
        assert wkb_transmission_uniform_field(gap, field) == pytest.approx(expected)

    def test_stronger_field_more_transmission(self):
        t1 = wkb_transmission_uniform_field(0.56, 1e8)
        t2 = wkb_transmission_uniform_field(0.56, 5e8)
        assert t2 > t1

    def test_larger_gap_less_transmission(self):
        assert wkb_transmission_uniform_field(0.4, 2e8) > wkb_transmission_uniform_field(
            0.8, 2e8
        )

    def test_field_validation(self):
        with pytest.raises(ValueError):
            wkb_transmission_uniform_field(0.56, 0.0)

    @given(st.floats(0.2, 1.2), st.floats(1e7, 1e9))
    @settings(max_examples=40)
    def test_bounded_probability(self, gap, field):
        t = wkb_transmission_uniform_field(gap, field)
        assert 0.0 <= t <= 1.0


class TestJunctionProfile:
    def test_midgap_limits(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.8, lambda_nm=3.0)
        assert midgap_ev(profile, -50.0) == pytest.approx(0.0, abs=1e-6)
        assert midgap_ev(profile, 50.0) == pytest.approx(-0.8, abs=1e-6)
        assert midgap_ev(profile, 0.0) == pytest.approx(-0.4)

    def test_window_closed_before_breakover(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.4, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        assert lo >= hi

    def test_window_opens_past_gap(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.76, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        assert hi - lo == pytest.approx(0.2, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            JunctionProfile(gap_ev=0.0, delta_ev=-0.5, lambda_nm=3.0)
        with pytest.raises(ValueError):
            JunctionProfile(gap_ev=0.5, delta_ev=-0.5, lambda_nm=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gap_ev", math.nan),
            ("gap_ev", math.inf),
            ("lambda_nm", math.nan),
            ("lambda_nm", math.inf),
            ("delta_ev", math.nan),
            ("delta_ev", -math.inf),
            ("delta_ev", np.array([-1.0, math.nan])),
        ],
    )
    def test_rejects_non_finite(self, field, value):
        fields = {"gap_ev": 0.56, "delta_ev": -0.9, "lambda_nm": 3.0, field: value}
        with pytest.raises(ValueError, match=field):
            JunctionProfile(**fields)


class TestJunctionTransmission:
    def test_zero_outside_window(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.8, lambda_nm=3.0)
        assert junction_btbt_transmission(profile, 0.5) == 0.0

    def test_positive_inside_window(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        mid = (lo + hi) / 2.0
        t = junction_btbt_transmission(profile, mid)
        assert 0.0 < t < 1.0

    def test_sharper_junction_tunnels_more(self):
        sharp = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=1.5)
        soft = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=6.0)
        lo, hi = sharp.tunnel_window_ev()
        mid = (lo + hi) / 2.0
        assert junction_btbt_transmission(sharp, mid) > junction_btbt_transmission(
            soft, mid
        )

    def test_vectorised_output(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        lo, hi = profile.tunnel_window_ev()
        energies = np.linspace(lo + 1e-3, hi - 1e-3, 7)
        t = junction_btbt_transmission(profile, energies)
        assert t.shape == (7,)
        assert np.all((t >= 0.0) & (t <= 1.0))

    def test_rejects_non_finite_energy(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-0.9, lambda_nm=3.0)
        with pytest.raises(ValueError, match="energy_ev"):
            junction_btbt_transmission(profile, [-0.4, math.nan])

    def test_profile_array_broadcasts_against_energies(self):
        deltas = np.array([-0.9, -1.3, -2.2])
        energies = np.linspace(-0.5, -0.3, 5)
        batched = junction_btbt_transmission(
            JunctionProfile(0.56, deltas[:, None], 3.0), energies
        )
        for row, delta in zip(batched, deltas):
            np.testing.assert_array_equal(
                row, junction_btbt_transmission(JunctionProfile(0.56, delta, 3.0), energies)
            )

    @given(
        gap=st.floats(0.2, 1.2),
        # Just past breakover (the window's two edges nearly meet, and the
        # channel-side action's c sits at h) up to a wide-open window.
        excess=st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 2.5)),
        lam=st.floats(0.5, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quad_oracle(self, gap, excess, lam):
        profile = JunctionProfile(gap_ev=gap, delta_ev=-gap - excess, lambda_nm=lam)
        lo, hi = profile.tunnel_window_ev()
        # Across the window, including within 1e-12 of it from both edges.
        fractions = np.array([1e-12, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-6, 1 - 1e-12])
        energies = lo + (hi - lo) * fractions
        energies = energies[(lo < energies) & (energies < hi)]
        expected = np.array([quad_transmission(profile, e) for e in energies])
        np.testing.assert_allclose(
            junction_btbt_transmission(profile, energies), expected, rtol=TRANSMISSION_RTOL
        )


class TestOracleHelpers:
    @pytest.mark.parametrize("x_nm", [-30.0, -3.0, -0.2, 0.0, 0.4, 2.0, 25.0])
    def test_scalar_kappa_matches_array_helpers(self, x_nm):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-1.1, lambda_nm=2.8)
        energy = -0.45
        expected = imaginary_dispersion_per_m(
            energy - midgap_ev(profile, x_nm), profile.gap_ev
        ) * 1e-9
        assert kappa_per_nm(x_nm, profile, energy) == pytest.approx(float(expected), rel=1e-13)


class TestWindowIntegral:
    def test_closed_window_is_exactly_zero(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=np.array([-0.3, -0.56]), lambda_nm=3.0)
        np.testing.assert_array_equal(junction_btbt_integral_ev(profile, 0.0, -0.5), [0.0, 0.0])

    def test_equal_reservoirs_carry_no_current(self):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-1.4, lambda_nm=3.0)
        assert junction_btbt_integral_ev(profile, -0.8, -0.8) == 0.0

    @pytest.mark.parametrize("name", ["mu_source_ev", "mu_channel_ev"])
    def test_rejects_non_finite_fermi_level(self, name):
        profile = JunctionProfile(gap_ev=0.56, delta_ev=-1.4, lambda_nm=3.0)
        levels = {"mu_source_ev": -0.8, "mu_channel_ev": -1.0, name: math.nan}
        with pytest.raises(ValueError, match=name):
            junction_btbt_integral_ev(profile, **levels)

    @given(
        gap=st.floats(0.3, 1.0),
        excess=st.one_of(st.floats(1e-6, 1e-2), st.floats(1e-2, 2.0)),
        lam=st.floats(1.0, 10.0),
        degeneracy=st.floats(0.0, 0.15),
        v_diode=st.floats(-0.8, 0.6),
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_rule_matches_quad(self, gap, excess, lam, degeneracy, v_diode):
        # The tunnel FET's placement of the Fermi levels: the channel's sits
        # `degeneracy` above its conduction edge, the source's `v_diode` below.
        delta = -gap - excess
        mu_channel = delta + gap / 2 + degeneracy
        profile = JunctionProfile(gap_ev=gap, delta_ev=delta, lambda_nm=lam)
        expected = quad_window_integral_ev(
            profile, mu_channel - v_diode, mu_channel, 300.0, junction_btbt_transmission
        )
        got = junction_btbt_integral_ev(profile, mu_channel - v_diode, mu_channel)
        assert float(got) == pytest.approx(expected, rel=CURRENT_RTOL, abs=1e-300)


_FIG6 = CNTTunnelFET(chirality_for_gap(0.56))
# The same tube with lambda = 6 nm (lambda^2 grows with t_ox).
_WIDE = CNTTunnelFET(
    chirality_for_gap(0.56), t_ox_nm=10.0 * (6.0 / _FIG6.screening_length_nm) ** 2
)
_BIASES = [(float(v), -0.5) for v in np.linspace(-2.0, 0.15, 10)] + [(-2.0, 0.4), (-1.0, 0.4)]


class TestCurrentOracle:
    """The tunnel FET's BTBT current against the nested-quad oracle.

    Ten reverse biases span fig6's open window (it opens near V_G = 0.2 V),
    plus two forward ones; at the fig6 tube's lambda and at lambda = 6 nm.
    """

    def test_wide_device_has_six_nm_screening_length(self):
        assert _WIDE.screening_length_nm == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("device", [_FIG6, _WIDE], ids=["fig6", "lambda6nm"])
    @pytest.mark.parametrize("v_gate, v_diode", _BIASES)
    def test_btbt_current_matches_quad_oracle(self, device, v_gate, v_diode):
        expected = quad_btbt_current_a(device, v_gate, v_diode)
        assert expected != 0.0
        got = float(device.btbt_current_a(np.array([v_gate]), v_diode)[0])
        assert got == pytest.approx(expected, rel=CURRENT_RTOL)
