"""Separation processes: purity evolution and the purity/yield trade-off."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.integration.sorting import (
    DENSITY_GRADIENT,
    DNA_SORTING,
    GEL_CHROMATOGRAPHY,
    SeparationProcess,
    passes_to_reach_purity,
)


class TestProcessValidation:
    def test_selectivity_must_exceed_one(self):
        with pytest.raises(ValueError):
            SeparationProcess("bad", selectivity=1.0, retain_semiconducting=0.8)

    def test_retention_bounds(self):
        with pytest.raises(ValueError):
            SeparationProcess("bad", selectivity=10.0, retain_semiconducting=0.0)

    def test_purity_bounds(self):
        with pytest.raises(ValueError):
            GEL_CHROMATOGRAPHY.purity_after_pass(1.5)


class TestSinglePass:
    def test_purity_increases(self):
        assert GEL_CHROMATOGRAPHY.purity_after_pass(2 / 3) > 2 / 3

    def test_selectivity_formula(self):
        proc = SeparationProcess("x", selectivity=9.0, retain_semiconducting=0.9)
        # p=0.5: p' = 0.9*0.5 / (0.9*0.5 + 0.1*0.5) = 0.9.
        assert proc.purity_after_pass(0.5) == pytest.approx(0.9)

    def test_pure_input_stays_pure(self):
        assert GEL_CHROMATOGRAPHY.purity_after_pass(1.0) == pytest.approx(1.0)

    def test_yield_less_than_one(self):
        y = GEL_CHROMATOGRAPHY.yield_of_pass(2 / 3)
        assert 0.0 < y < 1.0

    @given(st.floats(0.01, 0.999))
    @settings(max_examples=40)
    def test_purity_monotone_improvement(self, purity):
        for proc in (GEL_CHROMATOGRAPHY, DENSITY_GRADIENT, DNA_SORTING):
            assert proc.purity_after_pass(purity) >= purity

    @given(st.floats(0.01, 0.999))
    @settings(max_examples=40)
    def test_output_is_probability(self, purity):
        out = DNA_SORTING.purity_after_pass(purity)
        assert 0.0 <= out <= 1.0


class TestMultiPass:
    def test_run_tracks_history(self):
        result = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.9999)
        assert len(result.purity_history) == result.n_passes + 1
        assert result.purity == result.purity_history[-1]

    def test_yield_compounds(self):
        fewer = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.99)
        more = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.9999)
        assert more.n_passes > fewer.n_passes
        assert more.cumulative_yield < fewer.cumulative_yield

    def test_zero_passes_identity(self):
        result = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.5, initial_purity=0.5)
        assert result.n_passes == 0
        assert result.purity == 0.5
        assert result.cumulative_yield == 1.0

    def test_nines_metric(self):
        import math

        result = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.9999)
        assert result.nines() == pytest.approx(-math.log10(1.0 - result.purity))
        assert result.nines() == pytest.approx(-math.log10(result.metallic_fraction))


class TestPassesToPurity:
    def test_reaches_target(self):
        result = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.9999)
        assert result.purity >= 0.9999
        assert result.n_passes >= 1

    def test_higher_selectivity_needs_fewer_passes(self):
        gel = passes_to_reach_purity(GEL_CHROMATOGRAPHY, 0.9999).n_passes
        gradient = passes_to_reach_purity(DENSITY_GRADIENT, 0.9999).n_passes
        assert gel <= gradient

    def test_dna_reaches_six_nines(self):
        result = passes_to_reach_purity(DNA_SORTING, 1.0 - 1e-6)
        assert result.purity >= 1.0 - 1e-6
        # ... at a painful material cost (the paper's integration gap).
        assert result.cumulative_yield < 0.5

    def test_unreachable_raises(self):
        weak = SeparationProcess("weak", selectivity=1.01, retain_semiconducting=0.9)
        with pytest.raises(ValueError):
            passes_to_reach_purity(weak, 1.0 - 1e-9, max_passes=3)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            passes_to_reach_purity(GEL_CHROMATOGRAPHY, 1.5)
