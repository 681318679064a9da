"""Fabric density experiment: pitch/purity trade-offs (reduced sweep)."""

import math

import pytest

from repro.experiments.fabric_density import run_fabric_density


@pytest.fixture(scope="module")
def result():
    # Reduced sweep: the shared device cache makes repeats cheap, but the
    # first node solves of each chirality dominate, so keep it small.
    return run_fabric_density(
        pitches_nm=(8.0, 32.0),
        purities=(0.9, 1.0),
        n_samples=3,
        seed=5,
    )


class TestFabricDensity:
    def test_tighter_pitch_higher_density(self, result):
        assert result.density_ma_per_um[0] > result.density_ma_per_um[1]

    def test_fabric_competitive_at_logic_pitch(self, result):
        assert result.density_ma_per_um[0] > result.trigate_density_ma_per_um

    def test_purity_restores_on_off(self, result):
        assert result.median_on_off[1] > 10 * result.median_on_off[0]

    def test_helper_queries(self, result):
        pitch = result.pitch_to_beat_trigate_nm()
        assert not math.isnan(pitch)
        purity = result.purity_for_on_off(target=1e4)
        assert purity == 1.0

    def test_rows_printable(self, result):
        rows = result.rows()
        assert len(rows) >= 6
        assert all(isinstance(v, float) for _, v in rows)
