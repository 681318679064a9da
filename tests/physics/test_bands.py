"""Subband container: dispersion, validation."""

import numpy as np
import pytest

from band_oracle import dispersion_ev, energy_kt_on_grids, wavevector_per_m
from repro.physics.bands import BandStructure1D, Subband
from repro.physics.constants import HBAR, Q, VFERMI


@pytest.fixture
def subband():
    return Subband(edge_ev=0.28, degeneracy=4)


class TestSubband:
    def test_rejects_negative_edge(self):
        with pytest.raises(ValueError):
            Subband(edge_ev=-0.1)

    def test_rejects_bad_degeneracy(self):
        with pytest.raises(ValueError):
            Subband(edge_ev=0.1, degeneracy=0)

    def test_dispersion_at_k0_is_edge(self, subband):
        assert dispersion_ev(subband, 0.0) == pytest.approx(0.28)

    def test_dispersion_asymptote_is_linear(self, subband):
        k = 5e9  # far above the edge
        expected = HBAR * VFERMI * k / Q
        assert dispersion_ev(subband, k) == pytest.approx(expected, rel=1e-2)

    def test_wavevector_inverts_dispersion(self, subband):
        for e in (0.3, 0.5, 1.0):
            k = wavevector_per_m(subband, e)
            assert dispersion_ev(subband, k) == pytest.approx(e, rel=1e-10)

    def test_wavevector_below_edge_is_zero(self, subband):
        assert wavevector_per_m(subband, 0.1) == pytest.approx(0.0)

    def test_energy_on_grids_matches_dispersion(self, subband):
        kt = 0.0259
        e_top = np.array([0.3, 0.9, 2.5])
        t = np.linspace(0.0, 1.0, 33)
        grids = energy_kt_on_grids(subband, e_top, t**2, kt)
        k = wavevector_per_m(subband, e_top)[:, None] * t
        np.testing.assert_allclose(grids, dispersion_ev(subband, k) / kt, rtol=1e-13)
        np.testing.assert_allclose(grids[:, -1], e_top / kt, rtol=1e-13)


class TestBandStructure1D:
    def test_requires_subbands(self):
        with pytest.raises(ValueError):
            BandStructure1D(subbands=())

    def test_requires_sorted_edges(self):
        with pytest.raises(ValueError):
            BandStructure1D(subbands=(Subband(0.5), Subband(0.2)))
