"""Butterfly static noise margin on synthetic and device VTCs."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import snm
from repro.analysis.snm import butterfly_snm
from repro.circuit.cells import inverter_vtc
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET
from repro.experiments.fig2 import run_fig2
from repro.experiments.scaling import run_voltage_scaling


def steep_vtc(vdd=1.0, steepness=60.0, n=801):
    v_in = np.linspace(0.0, vdd, n)
    v_out = vdd / (1.0 + np.exp(steepness * (v_in - vdd / 2.0)))
    return v_in, v_out


class TestIdealisedCurves:
    def test_near_ideal_inverter_snm_approaches_half_vdd(self):
        v_in, v_out = steep_vtc(steepness=400.0)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm == pytest.approx(0.5, abs=0.03)

    def test_symmetric_curve_symmetric_lobes(self):
        v_in, v_out = steep_vtc(steepness=40.0)
        result = butterfly_snm(v_in, v_out)
        assert result.snm_low == pytest.approx(result.snm_high, abs=0.01)

    def test_steeper_is_better(self):
        soft = butterfly_snm(*steep_vtc(steepness=10.0))
        hard = butterfly_snm(*steep_vtc(steepness=100.0))
        assert hard.snm > soft.snm

    def test_sub_unity_gain_curve_not_bistable(self):
        # A straight line with |slope| < 1 crosses its mirror only once.
        v_in = np.linspace(0.0, 1.0, 101)
        v_out = 0.9 - 0.8 * v_in
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            butterfly_snm([0.0, 0.5, 0.4, 0.8, 1.0], [1, 1, 1, 0, 0])


class TestDeviceVTCs:
    def test_saturating_inverter_latch_holds_state(self):
        v_in, v_out, _ = inverter_vtc(AlphaPowerFET(), vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert result.is_bistable
        assert result.snm > 0.25

    def test_non_saturating_inverter_cannot_store(self):
        # The Fig. 2 argument taken to its storage conclusion: without
        # regeneration there is no bistability, hence no SRAM.
        device = NonSaturatingFET(vt=0.2, smoothing_v=0.3)
        v_in, v_out, _ = inverter_vtc(device, vdd=1.0, n_points=161)
        result = butterfly_snm(v_in, v_out)
        assert not result.is_bistable
        assert result.snm == 0.0


def dense_lobe_snm(x, f, f_inverse, n_grid):
    """The reference search: every (x0, s) pair of the n_grid x n_grid grid."""
    span = float(x[-1] - x[0])
    if span <= 0.0:
        return 0.0
    x0_grid = np.linspace(x[0], x[-1], n_grid)
    s_grid = np.linspace(0.0, span, n_grid)
    y0_min = f_inverse(x0_grid)
    corner_x = x0_grid[:, None] + s_grid[None, :]
    headroom = f(corner_x) - s_grid[None, :] - y0_min[:, None]
    feasible = headroom >= 0.0
    if not feasible.any():
        return 0.0
    return float(s_grid[np.max(np.where(feasible.any(axis=0))[0])])


@contextmanager
def lobes_checked_against_dense_search():
    """Hold every ``_lobe_snm`` call to :func:`dense_lobe_snm`, bitwise.

    Yields the list of ``(bisected, dense)`` sides, one per lobe searched.
    """
    searched = []
    bisect = snm._lobe_snm

    def spy(*args):
        side = bisect(*args)
        searched.append((side, dense_lobe_snm(*args)))
        return side

    with mock.patch.object(snm, "_lobe_snm", spy):
        yield searched
    for side, dense in searched:
        assert side.hex() == dense.hex(), (side, dense)


class TestBisectedLobeSearch:
    def test_scaling_vtcs(self):
        with lobes_checked_against_dense_search() as searched:
            run_voltage_scaling()
        assert len(searched) >= 10
        assert any(side > 0.0 for side, _ in searched)

    def test_fig2_vtcs(self):
        result = run_fig2()
        with lobes_checked_against_dense_search() as searched:
            butterfly_snm(result.v_in, result.vtc_sat)
            butterfly_snm(result.v_in, result.vtc_lin)
        assert len(searched) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(1e-3, 1.0),  # input step
                st.floats(0.0, 1.0),  # output drop
            ),
            min_size=4,
            max_size=60,
        ),
        start=st.floats(-1.0, 1.0),
        top=st.floats(0.0, 2.0),
        sigmoid=st.one_of(st.none(), st.floats(1.0, 400.0)),
        n_grid=st.sampled_from([5, 64, 801]),
    )
    def test_monotone_vtcs(self, steps, start, top, sigmoid, n_grid):
        # A random monotone staircase, or a sigmoid of any steepness
        # sampled on the same random input points (bistable when steep).
        dx, drop = np.array(steps).T
        v_in = start + np.concatenate(([0.0], np.cumsum(dx)))
        if sigmoid is None:
            v_out = top - np.concatenate(([0.0], np.cumsum(drop)))
        else:
            middle = 0.5 * (v_in[0] + v_in[-1])
            v_out = top / (1.0 + np.exp(sigmoid * (v_in - middle) / np.ptp(v_in)))
        with lobes_checked_against_dense_search():
            butterfly_snm(v_in, v_out, n_grid=n_grid)
        # Both lobes of the same curve, searched whether or not it latches.
        y_mono = np.minimum.accumulate(v_out) - 1e-12 * np.arange(v_out.size)

        def f(values):
            return np.interp(values, v_in, y_mono)

        def f_inverse(values):
            return np.interp(values, y_mono[::-1], v_in[::-1])

        for args in ((v_in, f, f_inverse), (np.sort(y_mono), f_inverse, f)):
            side = snm._lobe_snm(*args, n_grid)
            assert side.hex() == dense_lobe_snm(*args, n_grid).hex()
