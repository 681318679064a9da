"""Subband container: dispersion, DOS, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from band_oracle import dispersion_ev
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
            k = subband.wavevector_per_m(e)
            assert dispersion_ev(subband, k) == pytest.approx(e, rel=1e-10)

    def test_wavevector_below_edge_is_zero(self, subband):
        assert subband.wavevector_per_m(0.1) == pytest.approx(0.0)

    def test_velocity_zero_at_edge_limits_to_vf(self, subband):
        assert subband.velocity_m_per_s(0.28) == pytest.approx(0.0, abs=1e-3)
        assert subband.velocity_m_per_s(50.0) == pytest.approx(VFERMI, rel=1e-3)

    def test_effective_mass_from_edge(self, subband):
        # m* = E_edge / v_F^2; for 0.28 eV and v_F ~ 9.7e5 this is ~0.05 m0.
        m_star = subband.effective_mass_kg
        assert m_star == pytest.approx(0.28 * Q / VFERMI**2)
        assert 0.02e-30 < m_star < 0.1e-30 * 9.109  # sanity vs m0 scale

    def test_metallic_subband_massless(self):
        assert Subband(edge_ev=0.0).effective_mass_kg == 0.0

    def test_dos_zero_below_edge(self, subband):
        assert subband.dos_per_ev_per_m(0.2) == 0.0

    def test_dos_diverges_at_edge(self, subband):
        assert np.isinf(subband.dos_per_ev_per_m(0.28))

    def test_dos_asymptote(self, subband):
        # D -> g / (pi hbar v_F) far above the edge.
        expected = 4.0 / (np.pi * HBAR * VFERMI / Q)
        assert subband.dos_per_ev_per_m(100.0) == pytest.approx(expected, rel=1e-3)

    def test_metallic_dos_constant(self):
        band = Subband(edge_ev=0.0, degeneracy=4)
        d1 = band.dos_per_ev_per_m(0.1)
        d2 = band.dos_per_ev_per_m(1.0)
        assert d1 == pytest.approx(d2, rel=1e-9)
        # ~2 states per eV per nm for a metallic CNT — the textbook value.
        assert d1 * 1e-9 == pytest.approx(2.0, rel=0.05)

    def test_energy_on_grids_matches_dispersion(self, subband):
        kt = 0.0259
        e_top = np.array([0.3, 0.9, 2.5])
        t = np.linspace(0.0, 1.0, 33)
        grids = subband.energy_kt_on_grids(e_top, t**2, kt)
        k = subband.wavevector_per_m(e_top)[:, None] * t
        np.testing.assert_allclose(grids, dispersion_ev(subband, k) / kt, rtol=1e-13)
        np.testing.assert_allclose(grids[:, -1], e_top / kt, rtol=1e-13)

    @given(st.floats(0.29, 10.0))
    def test_dos_positive_above_edge(self, energy):
        band = Subband(edge_ev=0.28)
        assert band.dos_per_ev_per_m(energy) > 0.0


class TestBandStructure1D:
    def test_requires_subbands(self):
        with pytest.raises(ValueError):
            BandStructure1D(subbands=())

    def test_requires_sorted_edges(self):
        with pytest.raises(ValueError):
            BandStructure1D(subbands=(Subband(0.5), Subband(0.2)))

    def test_gap_is_twice_first_edge(self):
        bands = BandStructure1D(subbands=(Subband(0.28), Subband(0.56)))
        assert bands.gap_ev == pytest.approx(0.56)
        assert bands.is_semiconducting

    def test_metallic_detection(self):
        bands = BandStructure1D(subbands=(Subband(0.0),))
        assert not bands.is_semiconducting

    def test_total_dos_adds_subbands(self):
        b1 = Subband(0.28)
        b2 = Subband(0.56)
        bands = BandStructure1D(subbands=(b1, b2))
        e = 1.0
        assert bands.dos_per_ev_per_m(e) == pytest.approx(
            b1.dos_per_ev_per_m(e) + b2.dos_per_ev_per_m(e)
        )
