"""I-V metric extraction on synthetic curves with known answers."""

import numpy as np
import pytest

from repro.analysis.iv import (
    ion_at_fixed_ioff,
    ion_ioff_ratio,
    saturation_index,
    subthreshold_swing_mv_per_decade,
)


def exponential_transfer(ss_mv=60.0, i0=1e-9, vgs=None):
    vgs = np.linspace(0.0, 0.5, 101) if vgs is None else vgs
    return vgs, i0 * 10.0 ** (vgs / (ss_mv * 1e-3))


class TestSubthresholdSwing:
    def test_recovers_known_slope(self):
        vgs, current = exponential_transfer(ss_mv=70.0)
        assert subthreshold_swing_mv_per_decade(vgs, current) == pytest.approx(
            70.0, rel=1e-6
        )

    def test_picks_steepest_segment(self):
        vgs = np.linspace(0.0, 0.5, 101)
        current = np.where(
            vgs < 0.25,
            1e-9 * 10 ** (vgs / 0.080),
            1e-9 * 10 ** (0.25 / 0.080) * 10 ** ((vgs - 0.25) / 0.040),
        )
        assert subthreshold_swing_mv_per_decade(vgs, current) == pytest.approx(
            40.0, rel=1e-6
        )

    def test_needs_points(self):
        with pytest.raises(ValueError):
            subthreshold_swing_mv_per_decade([0.0, 0.1], [1e-9, 1e-8])

    def test_flat_curve_rejected(self):
        vgs = np.linspace(0, 0.5, 20)
        with pytest.raises(ValueError):
            subthreshold_swing_mv_per_decade(vgs, np.full(20, 1e-9))


class TestIonIoff:
    def test_ratio_on_exponential(self):
        vgs, current = exponential_transfer(ss_mv=100.0)
        # 0.5 V window at 100 mV/dec = 5 decades.
        assert ion_ioff_ratio(vgs, current, 0.0, 0.5) == pytest.approx(1e5, rel=1e-3)

    def test_fixed_ioff_metric(self):
        vgs, current = exponential_transfer(ss_mv=60.0, i0=1e-9)
        ion = ion_at_fixed_ioff(vgs, current, supply_window_v=0.12, ioff_target_a=1e-8)
        # Two decades above 1e-8.
        assert ion == pytest.approx(1e-6, rel=1e-3)

    def test_fixed_ioff_out_of_sweep(self):
        vgs, current = exponential_transfer()
        with pytest.raises(ValueError):
            ion_at_fixed_ioff(vgs, current, supply_window_v=0.5, ioff_target_a=1e-20)

    def test_window_beyond_sweep_end(self):
        vgs, current = exponential_transfer()
        with pytest.raises(ValueError):
            ion_at_fixed_ioff(vgs, current, supply_window_v=5.0, ioff_target_a=1e-8)

    def test_window_validation(self):
        vgs, current = exponential_transfer()
        with pytest.raises(ValueError):
            ion_at_fixed_ioff(vgs, current, supply_window_v=0.0, ioff_target_a=1e-8)


class TestSaturationIndex:
    def test_resistor_scores_zero(self):
        vds = np.linspace(0.0, 1.0, 50)
        assert saturation_index(vds, 1e-4 * vds) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_source_scores_one(self):
        vds = np.linspace(0.0, 1.0, 50)
        current = np.minimum(vds / 0.1, 1.0) * 1e-5  # hard knee at 0.1 V
        assert saturation_index(vds, current) == pytest.approx(1.0, abs=1e-9)

    def test_intermediate_device(self):
        vds = np.linspace(0.0, 1.0, 100)
        current = 1e-5 * np.tanh(vds / 0.2) * (1.0 + 0.3 * vds)
        index = saturation_index(vds, current)
        assert 0.5 < index < 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            saturation_index([0, 0.5, 1.0], [0, 1, 2])

    def test_bad_knee_fraction(self):
        vds = np.linspace(0, 1, 50)
        with pytest.raises(ValueError):
            saturation_index(vds, vds, knee_fraction=0.95)
