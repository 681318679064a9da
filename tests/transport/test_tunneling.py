"""Two-band tunneling: imaginary dispersion, WKB, junction profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.physics.constants import HBAR, Q, VFERMI
from repro.transport.tunneling import (
    JunctionProfile,
    imaginary_dispersion_per_m,
    junction_btbt_transmission,
    wkb_transmission_uniform_field,
)


def loop_btbt_transmission(profile, energy_ev, fermi_velocity=VFERMI, n_points=400):
    """Oracle: WKB transmission one energy at a time (the original loop).

    The action integral is summed per energy; the exponential is numpy's,
    as in production (``math.exp`` differs from it in the last ulp).
    """
    energy_ev = np.atleast_1d(np.asarray(energy_ev, dtype=float))
    lo, hi = profile.tunnel_window_ev()
    span = 12.0 * profile.lambda_nm
    x_nm = np.linspace(-span, span, n_points)
    midgap = profile.midgap_ev(x_nm)
    dx_m = (x_nm[1] - x_nm[0]) * 1e-9
    transmission = np.zeros_like(energy_ev)
    for i, energy in enumerate(energy_ev):
        if not lo < energy < hi:
            continue
        kappa = imaginary_dispersion_per_m(energy - midgap, profile.gap_ev, fermi_velocity)
        transmission[i] = np.exp(-2.0 * float(np.sum(kappa) * dx_m))
    return transmission


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
        assert profile.midgap_ev(-50.0) == pytest.approx(0.0, abs=1e-6)
        assert profile.midgap_ev(50.0) == pytest.approx(-0.8, abs=1e-6)
        assert profile.midgap_ev(0.0) == pytest.approx(-0.4)

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

    @given(
        st.floats(0.2, 1.2),
        st.floats(-2.5, 0.0),
        st.floats(0.5, 10.0),
        st.integers(1, 40),
        st.integers(50, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorised_matches_loop_oracle(self, gap, delta, lam, n_energies, n_points):
        profile = JunctionProfile(gap_ev=gap, delta_ev=delta, lambda_nm=lam)
        lo, hi = profile.tunnel_window_ev()
        # Straddle the window so in- and out-of-window energies both occur.
        energies = np.linspace(min(lo, hi) - 0.1, max(lo, hi) + 0.1, n_energies)
        got = np.atleast_1d(junction_btbt_transmission(profile, energies, n_points=n_points))
        np.testing.assert_array_equal(
            got, loop_btbt_transmission(profile, energies, n_points=n_points)
        )
