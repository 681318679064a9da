"""Fermi-Dirac statistics: limits, symmetry, numerical safety."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.physics.fermi import fermi_dirac, fermi_integral_f0


class TestFermiDirac:
    def test_half_at_chemical_potential(self):
        assert fermi_dirac(0.3, 0.3) == pytest.approx(0.5)

    def test_limits(self):
        assert fermi_dirac(-10.0, 0.0) == pytest.approx(1.0)
        assert fermi_dirac(10.0, 0.0) == pytest.approx(0.0, abs=1e-30)

    def test_vectorised(self):
        values = fermi_dirac(np.array([-1.0, 0.0, 1.0]), 0.0)
        assert values.shape == (3,)
        assert np.all(np.diff(values) < 0.0)

    def test_temperature_sharpens_step(self):
        warm = fermi_dirac(0.05, 0.0, temperature_k=300.0)
        cold = fermi_dirac(0.05, 0.0, temperature_k=30.0)
        assert cold < warm

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            fermi_dirac(0.0, 0.0, temperature_k=-1.0)

    def test_no_overflow_for_extreme_energies(self):
        # Clipped exponent: result is denormal-small, never NaN/overflow.
        assert fermi_dirac(1e6, 0.0) < 1e-200
        assert fermi_dirac(-1e6, 0.0) == pytest.approx(1.0)

    @given(st.floats(-50, 50))
    def test_particle_hole_symmetry(self, eta):
        # f(E - mu) + f(mu - E) = 1
        e = eta * 0.0259
        assert fermi_dirac(e, 0.0) + fermi_dirac(-e, 0.0) == pytest.approx(1.0)


class TestF0Integral:
    def test_matches_log1p_exp(self):
        for eta in (-5.0, -1.0, 0.0, 1.0, 5.0):
            assert fermi_integral_f0(eta) == pytest.approx(math.log1p(math.exp(eta)))

    def test_large_positive_limit_is_linear(self):
        assert fermi_integral_f0(500.0) == pytest.approx(500.0)

    def test_large_negative_limit_is_exponential(self):
        assert fermi_integral_f0(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-6)

    def test_at_zero(self):
        assert fermi_integral_f0(0.0) == pytest.approx(math.log(2.0))

    def test_vectorised_shape(self):
        out = fermi_integral_f0(np.linspace(-5, 5, 11))
        assert out.shape == (11,)

    @given(st.floats(-100, 100))
    def test_monotone_increasing(self, eta):
        assert fermi_integral_f0(eta + 0.1) > fermi_integral_f0(eta)

    @given(st.floats(-100, 100))
    def test_always_positive(self, eta):
        assert fermi_integral_f0(eta) > 0.0
