"""Growth populations: the 2/3 semiconducting rule and diameter statistics."""

import numpy as np
import pytest

from repro.integration.growth import GrowthDistribution


def _draw(dist, n, rng):
    """``n`` tubes drawn from the population, as ``sample_fabric`` draws them."""
    indices = rng.choice(len(dist.chiralities), size=n, p=dist.probabilities)
    return [dist.chiralities[int(i)] for i in indices]


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthDistribution(mean_diameter_nm=0.0)
        with pytest.raises(ValueError):
            GrowthDistribution(sigma_diameter_nm=-0.1)
        with pytest.raises(ValueError):
            GrowthDistribution(diameter_window_nm=(2.0, 1.0))

    def test_probabilities_normalised(self):
        dist = GrowthDistribution()
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_chirality_list_not_aliased(self):
        dist = GrowthDistribution()
        listing = dist.chiralities
        listing.clear()
        assert dist.chiralities  # internal state untouched


class TestSemiconductingFraction:
    def test_near_two_thirds(self):
        # The paper's "CNTs can come in different flavors": as-grown
        # populations are ~1/3 metallic.
        fraction = GrowthDistribution().semiconducting_fraction()
        assert fraction == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_robust_to_recipe(self):
        small = GrowthDistribution(mean_diameter_nm=1.0, sigma_diameter_nm=0.15)
        assert small.semiconducting_fraction() == pytest.approx(2.0 / 3.0, abs=0.08)


class TestSampling:
    def test_sample_size_and_window(self):
        dist = GrowthDistribution()
        rng = np.random.default_rng(42)
        tubes = _draw(dist, 500, rng)
        assert len(tubes) == 500
        lo, hi = dist.diameter_window_nm
        assert all(lo <= t.diameter_nm <= hi for t in tubes)

    def test_sample_mean_diameter(self):
        dist = GrowthDistribution(mean_diameter_nm=1.5, sigma_diameter_nm=0.2)
        rng = np.random.default_rng(7)
        diameters = np.array([t.diameter_nm for t in _draw(dist, 4000, rng)])
        assert diameters.mean() == pytest.approx(1.5, abs=0.05)

    def test_sampled_semiconducting_share(self):
        dist = GrowthDistribution()
        rng = np.random.default_rng(3)
        tubes = _draw(dist, 3000, rng)
        share = sum(t.is_semiconducting for t in tubes) / len(tubes)
        assert share == pytest.approx(dist.semiconducting_fraction(), abs=0.03)

    def test_reproducible_with_seed(self):
        dist = GrowthDistribution()
        a = _draw(dist, 50, np.random.default_rng(5))
        b = _draw(dist, 50, np.random.default_rng(5))
        assert a == b
