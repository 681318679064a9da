"""CNT chirality: geometry, metallicity rule, zone-folded subbands."""

import pytest
from hypothesis import given, strategies as st

from repro.physics.cnt import (
    CNT_DEGENERACY,
    Chirality,
    chirality_for_gap,
    enumerate_chiralities,
)

# Target gaps [eV] of the brute-force checks: the paper's 0.56 eV, the
# quadrature cases' 0.35 and 1.0 eV, and gaps between them and beyond.
BRUTE_FORCE_GAPS = (0.3, 0.35, 0.45, 0.56, 0.7, 0.8, 1.0, 1.2)

chirality_indices = st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))
)


class TestGeometry:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            Chirality(3, 5)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Chirality(0, 0)

    def test_known_diameters(self):
        # Textbook values: (10,10) ~ 1.36 nm, (17,0) ~ 1.33 nm, (19,0) ~ 1.49 nm.
        assert Chirality(10, 10).diameter_nm == pytest.approx(1.356, abs=0.01)
        assert Chirality(17, 0).diameter_nm == pytest.approx(1.33, abs=0.01)
        assert Chirality(19, 0).diameter_nm == pytest.approx(1.49, abs=0.01)

    @given(chirality_indices)
    def test_diameter_positive_and_angle_bounded(self, nm):
        c = Chirality(*nm)
        assert c.diameter_nm > 0.0


class TestMetallicityRule:
    def test_armchair_always_metallic(self):
        for n in range(1, 15):
            assert Chirality(n, n).is_metallic

    def test_zigzag_every_third_metallic(self):
        for n in range(3, 30, 3):
            assert Chirality(n, 0).is_metallic
        assert Chirality(10, 0).is_semiconducting
        assert Chirality(11, 0).is_semiconducting

    @given(chirality_indices)
    def test_rule_matches_mod3(self, nm):
        c = Chirality(*nm)
        assert c.is_metallic == ((c.n - c.m) % 3 == 0)

    @given(chirality_indices)
    def test_metallic_iff_zero_gap(self, nm):
        c = Chirality(*nm)
        assert (c.bandgap_ev() == 0.0) == c.is_metallic


class TestBandgap:
    def test_inverse_diameter_scaling(self):
        small = Chirality(10, 0)  # d ~ 0.78 nm
        large = Chirality(20, 0)  # d ~ 1.57 nm
        ratio = small.bandgap_ev() / large.bandgap_ev()
        assert ratio == pytest.approx(large.diameter_nm / small.diameter_nm, rel=1e-9)

    def test_gap_value_085_over_d(self):
        c = Chirality(19, 0)
        assert c.bandgap_ev() == pytest.approx(0.852 / c.diameter_nm, rel=1e-2)

    def test_gamma0_scales_gap(self):
        c = Chirality(19, 0)
        assert c.bandgap_ev(gamma0_ev=2.7) == pytest.approx(
            c.bandgap_ev(3.0) * 2.7 / 3.0
        )


class TestSubbandLadder:
    def test_semiconducting_ladder_1_2_4(self):
        c = Chirality(19, 0)
        edges = c.subband_edges_ev(4)
        scale = edges[0]
        ratios = [e / scale for e in edges]
        assert ratios == pytest.approx([1.0, 2.0, 4.0, 5.0], rel=1e-9)

    def test_metallic_ladder_0_3_3(self):
        edges = Chirality(10, 10).subband_edges_ev(3)
        assert edges[0] == pytest.approx(0.0)
        assert edges[1] == pytest.approx(edges[2])
        assert edges[1] > 0.0

    def test_first_edge_is_half_gap(self):
        c = Chirality(15, 7)
        assert c.subband_edges_ev(1)[0] == pytest.approx(c.bandgap_ev() / 2.0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            Chirality(10, 0).subband_edges_ev(0)


class TestBandStructureFactory:
    def test_band_structure_metadata(self):
        c = Chirality(15, 7)
        bands = c.band_structure(3)
        assert len(bands.subbands) == 3
        assert bands.metadata["chirality"] == (15, 7)
        assert all(b.degeneracy == CNT_DEGENERACY for b in bands.subbands)

    def test_band_structure_gap_matches(self):
        c = Chirality(15, 7)
        assert 2.0 * c.band_structure().subbands[0].edge_ev == pytest.approx(c.bandgap_ev())


class TestEnumeration:
    def test_window_respected(self):
        tubes = enumerate_chiralities(1.0, 1.5)
        assert tubes
        assert all(1.0 <= t.diameter_nm <= 1.5 for t in tubes)

    def test_sorted_by_diameter(self):
        tubes = enumerate_chiralities(0.8, 2.0)
        diameters = [t.diameter_nm for t in tubes]
        assert diameters == sorted(diameters)

    def test_semiconducting_share_near_two_thirds(self):
        tubes = enumerate_chiralities(0.8, 2.2)
        share = sum(t.is_semiconducting for t in tubes) / len(tubes)
        assert 0.6 < share < 0.72

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            enumerate_chiralities(2.0, 1.0)
        with pytest.raises(ValueError):
            enumerate_chiralities(-1.0, 1.0)


class TestChiralityForGap:
    def test_paper_gap_finds_15_7_class_tube(self):
        c = chirality_for_gap(0.56)
        assert c.is_semiconducting
        assert c.bandgap_ev() == pytest.approx(0.56, abs=0.02)
        assert c.diameter_nm == pytest.approx(1.52, abs=0.1)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            chirality_for_gap(0.0)

    @given(st.floats(0.4, 1.0))
    def test_always_within_ten_percent(self, gap):
        c = chirality_for_gap(gap)
        assert abs(c.bandgap_ev() - gap) / gap < 0.1

    @pytest.mark.parametrize("gap", BRUTE_FORCE_GAPS)
    def test_matches_brute_force_search(self, gap):
        # Every semiconducting tube up to n = 60 (d < 4.8 nm); of equal
        # gaps the smaller diameter, then the smaller m.
        tubes = [Chirality(n, m) for n in range(1, 61) for m in range(n + 1)]
        best = min(
            (c for c in tubes if c.is_semiconducting),
            key=lambda c: (abs(c.bandgap_ev() - gap), c.diameter_nm, c.m),
        )
        assert chirality_for_gap(gap) == best

    def test_is_memoized(self):
        assert chirality_for_gap(0.56) is chirality_for_gap(0.56)
