"""Empirical device models: alpha-power, non-saturating, tabulated."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.iv import saturation_index
from repro.devices import fabric as fabric_module
from repro.devices.base import FETModel, PType
from repro.devices.cntfet import CNTFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET, TabulatedFET
from repro.devices.reference import TrigateFET
from repro.experiments.fabric_density import run_fabric_density
from repro.store import fingerprint


class _NaNAtNode(FETModel):
    """A model whose current is NaN at one bias point."""

    def __init__(self, inner: FETModel, vgs: float, vds: float):
        self.inner, self.vgs, self.vds = inner, vgs, vds

    def _forward_currents(self, vgs, vds):
        current = self.inner.currents(vgs, vds)
        bad = np.isclose(vgs, self.vgs) & np.isclose(vds, self.vds)
        return np.where(bad, np.nan, current)


class TestAlphaPowerFET:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaPowerFET(k_a_per_v_alpha=-1.0)
        with pytest.raises(ValueError):
            AlphaPowerFET(alpha=0.5)
        with pytest.raises(ValueError):
            AlphaPowerFET(sat_fraction=0.0)
        with pytest.raises(ValueError):
            AlphaPowerFET(subthreshold_ideality=0.8)

    def test_zero_at_origin(self):
        assert AlphaPowerFET().current(0.7, 0.0) == pytest.approx(0.0)

    def test_subthreshold_slope_set_by_ideality(self):
        fet = AlphaPowerFET(vt=0.4, subthreshold_ideality=1.0)
        i1 = fet.current(0.05, 1.0)
        i2 = fet.current(0.15, 1.0)
        # Softplus width scales with alpha, so SS = n * 60 mV/dec exactly.
        decades = np.log10(i2 / i1)
        ss_mv = 100.0 / decades
        assert ss_mv == pytest.approx(59.5, abs=4.0)

    def test_subthreshold_slope_follows_n(self):
        steep = AlphaPowerFET(vt=0.4, subthreshold_ideality=1.0)
        soft = AlphaPowerFET(vt=0.4, subthreshold_ideality=1.5)
        ratio_steep = steep.current(0.15, 1.0) / steep.current(0.05, 1.0)
        ratio_soft = soft.current(0.15, 1.0) / soft.current(0.05, 1.0)
        assert ratio_steep > ratio_soft

    def test_output_curve_saturates(self):
        fet = AlphaPowerFET()
        vds = np.linspace(0.0, 1.0, 41)
        curve = np.array([fet.current(0.8, float(v)) for v in vds])
        assert saturation_index(vds, curve) > 0.7

    def test_channel_modulation_tilts_saturation(self):
        flat = AlphaPowerFET(channel_modulation=0.0)
        tilted = AlphaPowerFET(channel_modulation=0.3)
        gain_flat = flat.current(0.8, 1.0) - flat.current(0.8, 0.8)
        gain_tilted = tilted.current(0.8, 1.0) - tilted.current(0.8, 0.8)
        assert gain_tilted > gain_flat

    def test_negative_vds_antisymmetric_mapping(self):
        fet = AlphaPowerFET()
        assert fet.current(0.5, -0.3) == pytest.approx(-fet.current(0.8, 0.3))

    @given(st.floats(0.0, 1.2), st.floats(0.0, 1.2))
    @settings(max_examples=40)
    def test_nonnegative_forward(self, vgs, vds):
        assert AlphaPowerFET().current(vgs, vds) >= 0.0

    @given(st.floats(0.3, 1.1))
    @settings(max_examples=20)
    def test_monotone_in_vgs(self, vgs):
        fet = AlphaPowerFET()
        assert fet.current(vgs + 0.05, 0.6) > fet.current(vgs, 0.6)


class TestNonSaturatingFET:
    def test_validation(self):
        with pytest.raises(ValueError):
            NonSaturatingFET(g_on_s=0.0)
        with pytest.raises(ValueError):
            NonSaturatingFET(smoothing_v=-0.1)
        with pytest.raises(ValueError):
            NonSaturatingFET(vt=0.9, v_on=0.5)

    def test_perfectly_linear_in_vds(self):
        fet = NonSaturatingFET()
        i1 = fet.current(0.8, 0.25)
        i2 = fet.current(0.8, 0.5)
        i4 = fet.current(0.8, 1.0)
        assert i2 == pytest.approx(2 * i1)
        assert i4 == pytest.approx(4 * i1)

    def test_never_saturates(self):
        fet = NonSaturatingFET()
        vds = np.linspace(0.0, 1.0, 41)
        curve = np.array([fet.current(1.0, float(v)) for v in vds])
        assert saturation_index(vds, curve) == pytest.approx(0.0, abs=1e-9)

    def test_on_conductance_normalisation(self):
        fet = NonSaturatingFET(g_on_s=1e-4, v_on=1.0)
        assert fet.conductance(1.0) == pytest.approx(1e-4)

    def test_turns_off_below_threshold(self):
        fet = NonSaturatingFET(vt=0.3, smoothing_v=0.05)
        assert fet.conductance(0.0) < fet.conductance(1.0) / 100.0

    def test_negative_vds_gives_negative_current(self):
        fet = NonSaturatingFET()
        assert fet.current(0.8, -0.5) == pytest.approx(-fet.current(0.8, 0.5))


class TestTabulatedFET:
    @pytest.fixture
    def table(self):
        source = AlphaPowerFET()
        vgs = np.linspace(0.0, 1.0, 21)
        vds = np.linspace(0.0, 1.0, 21)
        return TabulatedFET.from_model(source, vgs, vds), source

    def test_reproduces_grid_points(self, table):
        tab, source = table
        assert tab.current(0.5, 0.5) == pytest.approx(source.current(0.5, 0.5))

    def test_interpolates_between_points(self, table):
        tab, source = table
        assert tab.current(0.52, 0.47) == pytest.approx(
            source.current(0.52, 0.47), rel=0.05
        )

    def test_clamps_out_of_range(self, table):
        tab, source = table
        assert tab.current(5.0, 0.5) == pytest.approx(source.current(1.0, 0.5), rel=1e-6)

    def test_negative_vds_symmetry(self, table):
        tab, _ = table
        assert tab.current(0.5, -0.4) == pytest.approx(-tab.current(0.9, 0.4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TabulatedFET([0, 1], [0, 1], np.zeros((3, 2)))
        with pytest.raises(ValueError):
            TabulatedFET([1, 0], [0, 1], np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "model, vgs, vds",
        [
            pytest.param(
                CNTFET.reference_device(),
                np.linspace(-0.2, 1.2, 29),
                np.linspace(0.0, 1.2, 25),
                id="cntfet-fabric-grid",
            ),
            pytest.param(
                AlphaPowerFET(),
                np.linspace(0.0, 1.0, 21),
                np.linspace(0.0, 1.0, 21),
                id="alpha-power",
            ),
        ],
    )
    def test_lazy_fill_is_bitwise_the_eager_fill(self, model, vgs, vds):
        eager = TabulatedFET(vgs, vds, model.currents(vgs[:, None], vds[None, :]))
        lazy = TabulatedFET.from_model(model, vgs, vds)
        assert not lazy._filled.any()
        rng = np.random.default_rng(28)
        # Mirrored (vds < 0) and clamped (beyond either edge) biases too.
        q_vgs = rng.uniform(vgs[0] - 0.3, vgs[-1] + 0.3, 200)
        q_vds = rng.uniform(-vds[-1] - 0.3, vds[-1] + 0.3, 200)
        order = rng.permutation(q_vgs.size)
        start = 0
        for size in (1, 2, 17, 5, 60, 115):
            batch = order[start : start + size]
            start += size
            got = lazy.currents(q_vgs[batch], q_vds[batch])
            assert np.array_equal(got, eager.currents(q_vgs[batch], q_vds[batch]))
        assert 0 < lazy._filled.sum() < lazy._filled.size
        assert np.array_equal(lazy.table, eager.table)
        assert lazy._filled.all()

    def test_fingerprint_ignores_the_fill_state(self):
        vgs = np.linspace(0.0, 1.0, 11)
        lazy = TabulatedFET.from_model(AlphaPowerFET(), vgs, vgs)
        before = fingerprint(lazy)
        lazy.current(0.5, 0.5)
        assert lazy._filled.any()
        assert fingerprint(lazy) == before
        clone = pickle.loads(pickle.dumps(lazy))
        assert not clone._filled.any()
        assert clone.current(0.5, 0.5) == lazy.current(0.5, 0.5)

    def test_non_finite_node_raises_when_filled(self):
        vgs = np.linspace(0.0, 1.0, 11)
        lazy = TabulatedFET.from_model(_NaNAtNode(AlphaPowerFET(), 0.7, 0.3), vgs, vgs)
        lazy.current(0.2, 0.2)  # far from the bad node
        with pytest.raises(ValueError, match="vgs = 0.7 V, vds = 0.3 V"):
            lazy.current(0.65, 0.35)
        with pytest.raises(ValueError, match="non-finite"):
            lazy.table

    def test_fabric_reads_at_most_eight_nodes_per_table(self, monkeypatch):
        monkeypatch.setattr(fabric_module, "_TABULATED_CACHE", {})
        run_fabric_density()
        assert fabric_module._TABULATED_CACHE
        for table in fabric_module._TABULATED_CACHE.values():
            assert table._filled.sum() <= 8


# ---------------------------------------------------------------------------
# Analytic linearization against a Richardson finite-difference reference.
# ---------------------------------------------------------------------------

DERIVATIVE_RTOL = 1e-7


def _richardson(f, x: float, h: float) -> float:
    """Fourth-order Richardson extrapolation of central differences."""

    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _reference(device, vgs: float, vds: float, h_g: float, h_d: float):
    """(gm, gds) of ``device.current`` by Richardson differences.

    Each comes with the reference's own rounding floor: the probe
    currents are rounded (~eps |I|) and so are the biases the model
    forms from ``vgs +- h`` (~eps |v| per volt of argument, times the
    slopes).  Where a step must be tiny or an exact derivative is far
    below ``|I| / h`` (gds deep in saturation with a small lambda), the
    differences cannot resolve more than that.
    """
    gm = _richardson(lambda g: device.current(g, vds), vgs, h_g)
    gds = _richardson(lambda d: device.current(vgs, d), vds, h_d)
    argument = abs(vgs) + abs(vds) + 1.0
    noise = 16.0 * np.finfo(float).eps * (
        abs(device.current(vgs, vds)) + (abs(gm) + abs(gds)) * argument
    )
    return (gm, noise / h_g), (gds, noise / h_d)


def _alpha_power_steps(core: AlphaPowerFET, vgs: float, vds: float):
    """Steps resolving the n-type bias point's local scales, or None.

    The softplus width sets the scale along vgs, ``vdsat`` (until
    ``tanh`` saturates) and ``|vds|`` (the mirror seam) the one along
    vds.  Points whose probes would straddle the ``vdsat`` clamp kink
    have no smooth reference and return None.
    """
    vgs_f, vds_f = (vgs - vds, -vds) if vds < 0.0 else (vgs, vds)
    width = core._softplus_width
    vdsat = core.saturation_voltage(vgs_f)
    scale_d = min(abs(vds), width)
    if vds_f / vdsat < 40.0:
        scale_d = min(scale_d, vdsat)
    h_g, h_d = 1e-3 * width, 1e-3 * scale_d
    clamp_overdrive = 1e-6 / core.sat_fraction
    vgs_kink = core.vt + width * math.log(math.expm1(clamp_overdrive / width))
    if abs(vgs_f - vgs_kink) < 4.0 * max(h_g, h_d):
        return None
    return h_g, h_d


def _assert_close(value: float, reference, what: str) -> None:
    exact, floor = reference
    assert abs(value - exact) <= DERIVATIVE_RTOL * abs(exact) + floor, (
        what, value, exact, floor
    )


alpha_power_cores = st.builds(
    AlphaPowerFET,
    k_a_per_v_alpha=st.floats(1e-5, 1e-3),
    vt=st.floats(0.1, 0.5),
    alpha=st.floats(1.0, 2.5),
    sat_fraction=st.floats(0.05, 1.0),
    channel_modulation=st.floats(0.0, 0.3),
    subthreshold_ideality=st.floats(1.0, 1.5),
    # Cold devices have narrow softplus widths: |x| > 35 inside the box.
    temperature_k=st.floats(20.0, 400.0),
)
box_vgs = st.floats(-0.3, 1.3)
box_vds = st.floats(1e-6, 1.3).flatmap(
    lambda magnitude: st.sampled_from([magnitude, -magnitude])
)


class TestAnalyticLinearization:
    @given(alpha_power_cores, box_vgs, box_vds, st.sampled_from(["plain", "trigate", "ptype"]))
    @settings(max_examples=300, deadline=None)
    def test_alpha_power_matches_richardson(self, core, vgs, vds, wrapper):
        device = {
            "plain": core,
            "trigate": TrigateFET(core=core),
            "ptype": PType(core),
        }[wrapper]
        sign = -1.0 if wrapper == "ptype" else 1.0
        vgs, vds = sign * vgs, sign * vds  # same n-type point for every wrapper
        steps = _alpha_power_steps(core, sign * vgs, sign * vds)
        assume(steps is not None)
        gm_ref, gds_ref = _reference(device, vgs, vds, *steps)
        current, gm, gds = device.linearize_point(vgs, vds)
        assert current == device.currents(np.array([vgs]), np.array([vds]))[0]
        _assert_close(gm, gm_ref, "gm")
        _assert_close(gds, gds_ref, "gds")

    @given(
        st.floats(0.005, 0.2),
        st.floats(-0.2, 0.6),
        box_vgs,
        st.floats(-1.3, 1.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_saturating_matches_richardson(self, smoothing, vt, vgs, vds):
        device = NonSaturatingFET(vt=vt, v_on=vt + 0.8, smoothing_v=smoothing)
        assume(abs(vds) > 1e-6)
        gm_ref, gds_ref = _reference(device, vgs, vds, 1e-3 * smoothing, 1e-3)
        current, gm, gds = device.linearize_point(vgs, vds)
        assert current == device.currents(np.array([vgs]), np.array([vds]))[0]
        assert gds == pytest.approx(device.conductance(vgs), rel=1e-15, abs=0.0)
        _assert_close(gm, gm_ref, "gm")
        _assert_close(gds, gds_ref, "gds")

    def test_regimes_are_reached(self):
        # The cold-device draws above do cross both softplus branch
        # thresholds and the vdsat clamp inside the operating box.
        cold = AlphaPowerFET(temperature_k=20.0)
        width = cold._softplus_width
        assert (1.3 - cold.vt) / width > 35.0
        assert (-0.3 - cold.vt) / width < -35.0
        assert cold.saturation_voltage(-0.3) == 1e-6

    @pytest.mark.parametrize("temperature_k", [5.0, 300.0])
    def test_deep_subthreshold_underflow(self, temperature_k):
        # At 5 K the overdrive underflows to exactly 0 at vgs = -0.3 V; the
        # derivatives must stay finite (no division by the overdrive).
        device = AlphaPowerFET(temperature_k=temperature_k)
        vgs = np.array([-0.3, -0.3, -0.3, -2.5])
        vds = np.array([0.5, -0.01, 1e-7, 0.8])
        if temperature_k == 5.0:
            assert device.overdrive(-0.3) == 0.0
        current, gm, gds = device.linearize(vgs, vds)
        assert np.all(np.isfinite(current) & np.isfinite(gm) & np.isfinite(gds))
        for k in range(vgs.size):
            point = device.linearize_point(float(vgs[k]), float(vds[k]))
            assert all(math.isfinite(value) for value in point)
            assert point == (float(current[k]), float(gm[k]), float(gds[k]))
            scalar = device.current(float(vgs[k]), float(vds[k]))
            assert point[0] == pytest.approx(scalar, rel=1e-15, abs=0.0)
        if temperature_k == 5.0:
            assert not np.any(current[:2]) and not np.any(gm) and not np.any(gds[:2])

    @pytest.mark.parametrize(
        "device",
        [
            AlphaPowerFET(),
            AlphaPowerFET(alpha=1.0, channel_modulation=0.0, temperature_k=20.0),
            TrigateFET(),
            NonSaturatingFET(smoothing_v=0.01),
            PType(AlphaPowerFET(temperature_k=40.0)),
        ],
        ids=["alpha_power", "alpha_power_cold", "trigate", "non_saturating", "ptype"],
    )
    def test_point_path_matches_array_path(self, device):
        rng = np.random.default_rng(7)
        vgs = np.concatenate([rng.uniform(-0.3, 1.3, 400), [-0.3, 0.25, 1.3]])
        vds = np.concatenate([rng.uniform(-1.3, 1.3, 400), [1e-6, 0.0, -1e-6]])
        batch = device.linearize(vgs, vds)
        assert np.array_equal(batch[0], device.currents(vgs, vds))
        points = np.array(
            [device.linearize_point(g, d) for g, d in zip(vgs.tolist(), vds.tolist())]
        ).T
        assert np.array_equal(points, np.array(batch))
        # The scalar ``current`` uses libm, the arrays numpy's SIMD
        # transcendentals: they agree to 1e-15 of the current's scale.
        scalar = np.array([device.current(g, d) for g, d in zip(vgs.tolist(), vds.tolist())])
        assert np.max(np.abs(scalar - batch[0])) <= 1e-15 * np.max(np.abs(batch[0]))
