"""Armchair GNR: width families, tight-binding gaps, degeneracy."""

import pytest
from hypothesis import given, strategies as st

from repro.physics.gnr import GNR_DEGENERACY, ArmchairGNR, gnr_for_gap


class TestGeometry:
    def test_rejects_tiny_ribbons(self):
        with pytest.raises(ValueError):
            ArmchairGNR(2)

    def test_width_formula(self):
        # W = (N-1) * sqrt(3)/2 * a_cc; N = 18 -> ~2.09 nm (paper's 2.1 nm).
        assert ArmchairGNR(18).width_nm == pytest.approx(2.09, abs=0.02)

    @given(st.integers(3, 120))
    def test_width_increases_with_n(self, n):
        assert ArmchairGNR(n + 1).width_nm > ArmchairGNR(n).width_nm


class TestFamilies:
    def test_3j2_family_quasi_metallic(self):
        for n in (5, 8, 11, 14, 17):
            assert ArmchairGNR(n).bandgap_ev() == pytest.approx(0.0, abs=1e-9)
            assert not ArmchairGNR(n).is_semiconducting

    def test_other_families_gapped(self):
        for n in (6, 7, 9, 10, 12, 13):
            assert ArmchairGNR(n).bandgap_ev() > 0.05

    def test_gap_decreases_within_family(self):
        gaps = [ArmchairGNR(n).bandgap_ev() for n in (7, 10, 13, 16, 19)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_roughly_inverse_width(self):
        # E_g ~ 0.8-1.0 eV nm / W for the semiconducting families.
        for n in (10, 16, 22, 34):
            ribbon = ArmchairGNR(n)
            product = ribbon.bandgap_ev() * ribbon.width_nm
            assert 0.5 < product < 1.5


class TestSubbands:
    def test_edges_sorted(self):
        edges = ArmchairGNR(18).subband_edges_ev()
        assert edges == sorted(edges)

    def test_edge_count_full_and_truncated(self):
        ribbon = ArmchairGNR(12)
        assert len(ribbon.subband_edges_ev()) == 12
        assert len(ribbon.subband_edges_ev(count=3)) == 3

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ArmchairGNR(12).subband_edges_ev(count=0)

    def test_band_structure_spin_only_degeneracy(self):
        bands = ArmchairGNR(18).band_structure(2)
        assert all(b.degeneracy == GNR_DEGENERACY for b in bands.subbands)
        assert GNR_DEGENERACY == 2  # half of the CNT's 4 — Fig. 1(b) difference

    def test_band_structure_gap(self):
        ribbon = ArmchairGNR(18)
        assert 2.0 * ribbon.band_structure().subbands[0].edge_ev == pytest.approx(
            ribbon.bandgap_ev()
        )


class TestGnrForGap:
    def test_paper_target(self):
        ribbon = gnr_for_gap(0.56)
        assert ribbon.is_semiconducting
        assert ribbon.bandgap_ev() == pytest.approx(0.56, abs=0.05)
        # Paper: 2.1 nm wide ribbon has a 0.56 eV gap.
        assert ribbon.width_nm == pytest.approx(2.1, abs=0.3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gnr_for_gap(-0.5)

    @pytest.mark.parametrize("gap", (0.3, 0.35, 0.45, 0.56, 0.7, 0.8, 1.0, 1.2))
    def test_matches_brute_force_search(self, gap):
        # Every subband edge of every ribbon N <= 200; the smaller N on a tie.
        ribbons = []
        for n_dimer in range(3, 201):
            ribbon_gap = 2.0 * min(ArmchairGNR(n_dimer).subband_edges_ev())
            if ribbon_gap > 1e-3:
                ribbons.append((abs(ribbon_gap - gap), n_dimer))
        assert gnr_for_gap(gap) == ArmchairGNR(min(ribbons)[1])

    @given(st.integers(3, 300))
    def test_gap_is_twice_the_lowest_edge(self, n_dimer):
        ribbon = ArmchairGNR(n_dimer)
        assert ribbon.bandgap_ev() == 2.0 * min(ribbon.subband_edges_ev())

    @given(st.floats(0.3, 1.2))
    def test_reasonable_match(self, gap):
        ribbon = gnr_for_gap(gap)
        assert abs(ribbon.bandgap_ev() - gap) / gap < 0.25
