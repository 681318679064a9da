"""Exact graphene tight binding and CNT zone folding validation."""

import math

import numpy as np
import pytest

from graphene_oracle import (
    cnt_cutting_line_energies,
    cutting_line_count,
    dirac_points,
    exact_subband_edges_ev,
    graphene_energy_ev,
    translation_period_nm,
)
from repro.physics.cnt import Chirality
from repro.physics.constants import A_LATTICE_NM, GAMMA0_EV


class TestGrapheneDispersion:
    def test_gamma_point_energy(self):
        # |f(Gamma)| = 3: the band maximum at 3 gamma0.
        assert graphene_energy_ev(0.0, 0.0) == pytest.approx(3.0 * GAMMA0_EV)

    def test_gap_closes_at_dirac_points(self):
        for kx, ky in dirac_points():
            assert graphene_energy_ev(kx, ky) == pytest.approx(0.0, abs=1e-9)

    def test_linear_near_dirac_point(self):
        # E ~ hbar v_F |dk| = (sqrt(3)/2) a gamma0 |dk| near K.
        kx, ky = dirac_points()[0]
        dk = 0.05  # 1/nm, small
        slope_expected = math.sqrt(3.0) / 2.0 * A_LATTICE_NM * GAMMA0_EV
        energy = graphene_energy_ev(kx + dk, ky)
        assert energy == pytest.approx(slope_expected * dk, rel=0.02)

    def test_reciprocal_lattice_periodicity(self):
        # b1 = (2 pi / a) (1/sqrt(3), 1): E(k + b1) = E(k).
        scale = 2.0 * math.pi / A_LATTICE_NM
        b1 = (scale / math.sqrt(3.0), scale)
        k = (0.7, -0.3)
        assert graphene_energy_ev(k[0] + b1[0], k[1] + b1[1]) == pytest.approx(
            graphene_energy_ev(*k), rel=1e-9
        )

    def test_sixfold_value_check(self):
        # M point: |f| = 1 -> E = gamma0.
        scale = 2.0 * math.pi / A_LATTICE_NM
        m_point = (scale / math.sqrt(3.0), 0.0)
        assert graphene_energy_ev(*m_point) == pytest.approx(GAMMA0_EV, rel=1e-9)


class TestFoldingGeometry:
    def test_translation_periods(self):
        # Zigzag: T = sqrt(3) a; armchair: T = a.
        assert translation_period_nm(Chirality(10, 0)) == pytest.approx(
            math.sqrt(3.0) * A_LATTICE_NM, rel=1e-6
        )
        assert translation_period_nm(Chirality(10, 10)) == pytest.approx(
            A_LATTICE_NM, rel=1e-6
        )

    def test_cutting_line_counts(self):
        assert cutting_line_count(Chirality(10, 0)) == 20
        assert cutting_line_count(Chirality(10, 10)) == 20
        assert cutting_line_count(Chirality(15, 7)) == 758

    def test_metallic_line_passes_through_k(self):
        # Armchair tubes: some cutting line reaches E = 0.
        c = Chirality(10, 10)
        k_axis = np.linspace(-math.pi / A_LATTICE_NM, math.pi / A_LATTICE_NM, 4001)
        minima = [
            float(np.min(cnt_cutting_line_energies(c, q, k_axis)))
            for q in range(cutting_line_count(c))
        ]
        assert min(minima) == pytest.approx(0.0, abs=5e-3)


class TestExactEdges:
    def test_chiral_tube_rejected(self):
        with pytest.raises(ValueError):
            exact_subband_edges_ev(Chirality(15, 7))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            exact_subband_edges_ev(Chirality(19, 0), count=0)

    @pytest.mark.parametrize("n", [13, 16, 19, 22])
    def test_zigzag_gap_matches_ladder_within_warping(self, n):
        c = Chirality(n, 0)
        exact = exact_subband_edges_ev(c, count=2)
        ladder = c.subband_edges_ev(1)[0]
        # First edge appears twice (K and K'); trigonal warping keeps the
        # linearised ladder within a few % at these diameters.
        assert exact[0] == pytest.approx(exact[1], rel=1e-6)
        assert exact[0] == pytest.approx(ladder, rel=0.05)

    def test_zigzag_second_edge_near_twice_first(self):
        exact = exact_subband_edges_ev(Chirality(19, 0), count=4)
        first, second = exact[0], exact[2]
        assert second / first == pytest.approx(2.0, rel=0.1)

    def test_armchair_stays_metallic(self):
        exact = exact_subband_edges_ev(Chirality(10, 10), count=1, n_k=2001)
        assert exact[0] == pytest.approx(0.0, abs=5e-3)

    def test_warping_grows_for_small_tubes(self):
        # Trigonal warping correction is larger for small-diameter tubes.
        def warping(n):
            c = Chirality(n, 0)
            exact = exact_subband_edges_ev(c, count=1)[0]
            return abs(exact - c.subband_edges_ev(1)[0]) / exact

        assert warping(7) > warping(19)
