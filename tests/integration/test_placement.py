"""Placement models: Poisson site statistics, alignment, trench filling."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.integration.placement import (
    AlignedGrowth,
    PlacementStatistics,
    TrenchDeposition,
)


class TestPlacementStatistics:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PlacementStatistics(p_empty=1.2, p_single=0.0, p_multiple=0.0, p_misaligned=0.0)

    def test_usable_fraction(self):
        stats = PlacementStatistics(
            p_empty=0.1, p_single=0.5, p_multiple=0.4, p_misaligned=0.1
        )
        assert stats.p_usable == pytest.approx(0.9 * 0.9)


class TestAlignedGrowth:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlignedGrowth(density_per_um=0.0)
        with pytest.raises(ValueError):
            AlignedGrowth(angular_sigma_deg=-1.0)

    def test_expected_tubes_linear_in_width(self):
        growth = AlignedGrowth(density_per_um=5.0)
        assert growth.expected_tubes(2.0) == pytest.approx(10.0)

    def test_misaligned_fraction_small_for_tight_sigma(self):
        tight = AlignedGrowth(angular_sigma_deg=1.0, misalignment_threshold_deg=5.0)
        # 5 sigma two-sided: ~6e-7.
        assert tight.misaligned_fraction() < 1e-5

    def test_misaligned_fraction_grows_with_sigma(self):
        loose = AlignedGrowth(angular_sigma_deg=5.0, misalignment_threshold_deg=5.0)
        tight = AlignedGrowth(angular_sigma_deg=1.0, misalignment_threshold_deg=5.0)
        assert loose.misaligned_fraction() > tight.misaligned_fraction()

    def test_poisson_statistics(self):
        growth = AlignedGrowth(density_per_um=2.0)
        stats = growth.statistics(device_width_um=1.0)
        assert stats.p_empty == pytest.approx(math.exp(-2.0))
        assert stats.p_single == pytest.approx(2.0 * math.exp(-2.0))
        assert stats.p_empty + stats.p_single + stats.p_multiple == pytest.approx(1.0)

    @given(st.floats(0.5, 10.0), st.floats(0.1, 3.0))
    @settings(max_examples=25)
    def test_statistics_are_probabilities(self, density, width):
        stats = AlignedGrowth(density_per_um=density).statistics(width)
        for p in (stats.p_empty, stats.p_single, stats.p_multiple, stats.p_misaligned):
            assert 0.0 <= p <= 1.0


class TestTrenchDeposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrenchDeposition(mean_tubes_per_site=0.0)

    def test_fill_fraction_formula(self):
        trench = TrenchDeposition(mean_tubes_per_site=2.5)
        assert trench.fill_fraction() == pytest.approx(1.0 - math.exp(-2.5))

    def test_park_regime_over_90_percent(self):
        # Park et al. reached >90 % filled sites; mu = 2.5 gives ~92 %.
        assert TrenchDeposition(mean_tubes_per_site=2.5).fill_fraction() > 0.9
