"""Batched ``currents``/``linearize`` vs the scalar ``current`` contract.

The compiled circuit assembly, the curve helpers and the tabulation all
consume the batched entry points, while spot values, root finders and
density helpers still call scalar ``current``.  These tests pin the two
paths together for every device model with a vectorised override, so an
edit to one side (a clamp, a softplus threshold, a solver tweak) cannot
silently diverge from the other.
"""

import numpy as np
import pytest

from repro.circuit.sweep import ScaledShiftedFET
from repro.devices.base import FETModel, PType
from repro.devices.cntfet import CNTFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET, TabulatedFET
from repro.devices.fabric import CNTFabricFET
from repro.devices.gnrfet import GNRFET
from repro.devices.reference import trigate_intel_22nm
from repro.devices.surrogate import GridSpec, compile_surrogate
from repro.physics.gnr import gnr_for_gap


def _tabulated():
    return TabulatedFET.from_model(
        AlphaPowerFET(), np.linspace(-0.3, 1.2, 16), np.linspace(0.0, 1.2, 13)
    )


FAST_DEVICES = {
    "alpha_power": AlphaPowerFET,
    "alpha_power_ptype": lambda: PType(AlphaPowerFET()),
    "alpha_power_double_mirror": lambda: PType(PType(AlphaPowerFET())),
    "non_saturating": NonSaturatingFET,
    "tabulated": _tabulated,
    "trigate": trigate_intel_22nm,
    "fabric": lambda: CNTFabricFET(
        [_tabulated()] * 3 + [AlphaPowerFET()], n_metallic=1
    ),
}

# The physical solvers are slow per point; a handful of biases still
# covers the mirror transform and the batched barrier Newton.
SLOW_DEVICES = {
    "cntfet": CNTFET.reference_device,
    "gnrfet": lambda: GNRFET(gnr_for_gap(0.56), channel_length_nm=20.0),
}


def _bias_grid(n):
    rng = np.random.default_rng(42)
    vgs = rng.uniform(-0.4, 1.2, n)
    vds = rng.uniform(-0.6, 1.2, n)  # both signs: exercises the mirror
    return vgs, vds


@pytest.mark.parametrize("name", FAST_DEVICES)
def test_fast_model_currents_match_scalar(name):
    device = FAST_DEVICES[name]()
    vgs, vds = _bias_grid(60)
    batch = device.currents(vgs, vds)
    scalar = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-30)


@pytest.mark.parametrize("name", SLOW_DEVICES)
def test_physical_model_currents_match_scalar(name):
    device = SLOW_DEVICES[name]()
    vgs, vds = _bias_grid(6)
    batch = device.currents(vgs, vds)
    scalar = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-30)


LINEARIZED_DEVICES = {
    **FAST_DEVICES,
    "surrogate": lambda: compile_surrogate(
        AlphaPowerFET(), GridSpec(initial_points=(8, 8), max_refinements=0)
    ),
    "scaled_shifted": lambda: ScaledShiftedFET(PType(AlphaPowerFET()), 1.07, -0.03),
}


@pytest.mark.parametrize("name", LINEARIZED_DEVICES)
def test_linearize_point_is_the_batched_element(name, monkeypatch):
    """``linearize_point`` is bitwise the matching element of ``linearize``.

    No model keeps a scalar linearization of its own: the base
    ``linearize_point`` is the one-point call of the batched form.
    """
    monkeypatch.setenv("REPRO_SURROGATE_CACHE", "off")
    device = LINEARIZED_DEVICES[name]()
    vgs, vds = _bias_grid(40)
    batch = np.array(device.linearize(vgs, vds))
    for k in range(vgs.size):
        point = device.linearize_point(float(vgs[k]), float(vds[k]))
        assert all(type(value) is float for value in point)
        assert np.array_equal(np.array(point), batch[:, k])


class _ForwardCurrentsOnly(FETModel):
    """Alpha-power currents through ``_forward_currents`` alone.

    It inherits the base ``current``, which the closed-form models
    replace with a scalar form of their own.
    """

    def __init__(self):
        self._core = AlphaPowerFET()

    def _forward_currents(self, vgs, vds):
        return self._core._forward_currents(vgs, vds)


def test_current_is_the_batched_element():
    """The base ``current`` is bitwise the matching element of ``currents``.

    A one-point call on 0-d values would run the model's arithmetic on
    numpy scalars (libm ``pow``), not the ufunc loops of the batch.
    """
    device = _ForwardCurrentsOnly()
    box = device._core.operating_box()
    rng = np.random.default_rng(7)
    vgs = rng.uniform(box.vgs_min, box.vgs_max, 400)
    vds = rng.uniform(box.vds_min, box.vds_max, 400)
    batch = device.currents(vgs, vds)
    point = np.array([device.current(float(g), float(d)) for g, d in zip(vgs, vds)])
    assert np.array_equal(point, batch)


class _FiniteDifferenceOnly(FETModel):
    """Alpha-power currents through ``_forward_currents`` alone.

    It inherits the default central-difference ``linearize``, which
    the closed-form models override.
    """

    def __init__(self):
        self._core = AlphaPowerFET()

    def current(self, vgs, vds):
        return self._core.current(vgs, vds)

    def _forward_currents(self, vgs, vds):
        return self._core._forward_currents(vgs, vds)


def test_linearize_matches_scalar_finite_differences():
    device = PType(_FiniteDifferenceOnly())
    vgs, vds = _bias_grid(40)
    delta_v = 1e-5
    current, gm, gds = device.linearize(vgs, vds)
    for k in range(vgs.size):
        g, d = float(vgs[k]), float(vds[k])
        assert float(current[k]) == pytest.approx(device.current(g, d), rel=1e-12)
        gm_ref = (
            device.current(g + delta_v, d) - device.current(g - delta_v, d)
        ) / (2 * delta_v)
        gds_ref = (
            device.current(g, d + delta_v) - device.current(g, d - delta_v)
        ) / (2 * delta_v)
        assert float(gm[k]) == pytest.approx(gm_ref, rel=1e-9, abs=1e-18)
        assert float(gds[k]) == pytest.approx(gds_ref, rel=1e-9, abs=1e-18)
