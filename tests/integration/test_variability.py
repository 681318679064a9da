"""CNFET array Monte Carlo: the 10,000-device statistics of Ref. [22]."""

import numpy as np
import pytest

from repro.circuit.resilience import ExecutionPolicy
from repro.integration.variability import (
    ArrayResult,
    ArraySpec,
    CNFETArrayModel,
)


def _columns(*devices, spec=None):
    """An ArrayResult from ``(n_tubes, n_metallic, i_on_a, i_off_a)`` rows."""
    rows = np.array(devices, dtype=float).reshape(-1, 4)
    return ArrayResult(
        n_tubes=rows[:, 0], n_metallic=rows[:, 1], i_on_a=rows[:, 2], i_off_a=rows[:, 3], spec=spec
    )


class TestDeviceSample:
    """Per-device flags, read from the array columns."""

    def test_flags(self):
        empty = _columns((0, 0, 0.0, 0.0))
        assert empty.open_fraction == 1.0 and empty.shorted_fraction == 0.0
        shorted = _columns((3, 1, 1e-5, 5e-5))
        assert shorted.shorted_fraction == 1.0 and shorted.open_fraction == 0.0

    def test_ratio_handles_zero_off(self):
        assert _columns((1, 0, 1e-5, 0.0)).on_off_ratios()[0] == np.inf


class TestModelValidation:
    def test_purity_bounds(self):
        with pytest.raises(ValueError):
            CNFETArrayModel(semiconducting_purity=1.2)

    def test_positive_scales(self):
        with pytest.raises(ValueError):
            CNFETArrayModel(mean_tubes_per_device=0.0)
        with pytest.raises(ValueError):
            CNFETArrayModel(mean_on_current_per_tube_a=-1.0)


class TestArrayStatistics:
    @pytest.fixture(scope="class")
    def clean_array(self):
        return CNFETArrayModel(
            semiconducting_purity=0.9999, mean_tubes_per_device=3.0
        ).sample_array(5000, seed=11)

    @pytest.fixture(scope="class")
    def dirty_array(self):
        return CNFETArrayModel(
            semiconducting_purity=0.90, mean_tubes_per_device=3.0
        ).sample_array(5000, seed=11)

    def test_reproducible_with_seed(self):
        model = CNFETArrayModel()
        a = model.sample_array(200, seed=3)
        b = model.sample_array(200, seed=3)
        assert a.on_currents_a() == pytest.approx(b.on_currents_a())

    def test_open_fraction_poisson(self, clean_array):
        assert clean_array.open_fraction == pytest.approx(np.exp(-3.0), abs=0.02)

    def test_purity_drives_shorts(self, clean_array, dirty_array):
        assert dirty_array.shorted_fraction > 10 * clean_array.shorted_fraction

    def test_pass_fraction_ordering(self, clean_array, dirty_array):
        assert clean_array.pass_fraction > dirty_array.pass_fraction

    def test_on_current_scales_with_tubes(self):
        few = CNFETArrayModel(mean_tubes_per_device=1.5).sample_array(3000, seed=5)
        many = CNFETArrayModel(mean_tubes_per_device=6.0).sample_array(3000, seed=5)
        assert many.on_currents_a().mean() > 2.0 * few.on_currents_a().mean()

    def test_metallic_tube_kills_on_off(self):
        dirty = CNFETArrayModel(semiconducting_purity=0.5).sample_array(2000, seed=9)
        shorted = dirty._n_metallic > 0
        assert shorted.any()
        assert np.median(dirty.on_off_ratios()[shorted]) < 100.0

    def test_spec_tightening_reduces_pass(self, clean_array):
        loose = clean_array.pass_fraction
        tight = CNFETArrayModel(
            semiconducting_purity=0.9999, mean_tubes_per_device=3.0
        ).sample_array(
            5000, seed=11, spec=ArraySpec(min_on_current_a=1e-6, min_on_off_ratio=1e6)
        ).pass_fraction
        assert tight <= loose

    def test_ten_thousand_device_run(self):
        # The Park-scale experiment: >10,000 measured devices.
        result = CNFETArrayModel(semiconducting_purity=0.99).sample_array(
            10000, seed=2014
        )
        assert result.n_devices == 10000
        assert 0.7 < result.pass_fraction < 1.0
        assert result.shorted_fraction > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CNFETArrayModel().sample_array(0)


class TestArrayResultEdgeCases:
    """The n_devices == 0 divide-by-zero fix and column validation."""

    def test_empty_array_fractions_are_zero(self):
        empty = _columns(spec=ArraySpec())
        assert empty.n_devices == 0
        assert empty.pass_fraction == 0.0
        assert empty.open_fraction == 0.0
        assert empty.shorted_fraction == 0.0
        assert empty.on_currents_a().size == 0
        assert empty.on_off_ratios().size == 0

    def test_empty_array_from_columns(self):
        empty = ArrayResult(
            n_tubes=np.array([], dtype=int),
            n_metallic=np.array([], dtype=int),
            i_on_a=np.array([]),
            i_off_a=np.array([]),
        )
        assert empty.pass_fraction == 0.0 and empty.n_devices == 0

    def test_all_open_array(self):
        result = _columns(*[(0, 0, 0.0, 0.0)] * 5, spec=ArraySpec())
        assert result.open_fraction == 1.0
        assert result.pass_fraction == 0.0
        assert result.shorted_fraction == 0.0
        assert np.all(np.isinf(result.on_off_ratios()))

    def test_constructor_requires_devices_or_columns(self):
        with pytest.raises(TypeError):
            ArrayResult(spec=ArraySpec())
        with pytest.raises(ValueError):
            ArrayResult(n_tubes=np.zeros(3), n_metallic=np.zeros(2),
                        i_on_a=np.zeros(3), i_off_a=np.zeros(3))


class TestSampleArrayDeterminism:
    """Engine satellite: seed fixes the array, execution shape never does."""

    def test_chunk_size_invariance(self):
        model = CNFETArrayModel()
        reference = model.sample_array(1500, seed=3)
        for chunk_size in (97, 256, 1024):
            result = model.sample_array(
                1500, seed=3, policy=ExecutionPolicy(chunk_size=chunk_size)
            )
            assert np.array_equal(
                reference.on_currents_a(), result.on_currents_a()
            )

    def test_process_pool_invariance(self):
        model = CNFETArrayModel()
        reference = model.sample_array(1200, seed=8)
        pooled = model.sample_array(1200, seed=8, policy=ExecutionPolicy(workers=2))
        assert np.array_equal(reference.on_currents_a(), pooled.on_currents_a())
        assert reference.pass_fraction == pooled.pass_fraction
