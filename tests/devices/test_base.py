"""FET interface helpers: p-type mirror, curves, protocol derivatives."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.devices.base import (
    FETModel,
    PType,
    output_curve,
    transfer_curve,
)
from repro.devices.empirical import AlphaPowerFET, TabulatedFET


@pytest.fixture
def nfet():
    return AlphaPowerFET()


class TestPType:
    def test_polarity_labels(self, nfet):
        assert nfet.polarity == "n"
        assert PType(nfet).polarity == "p"

    def test_mirror_symmetry(self, nfet):
        pfet = PType(nfet)
        assert pfet.current(-0.7, -0.5) == pytest.approx(-nfet.current(0.7, 0.5))

    def test_off_when_gate_high(self, nfet):
        pfet = PType(nfet)
        # p device with source at VDD: vgs = 0 means off.
        assert abs(pfet.current(0.0, -1.0)) < abs(pfet.current(-1.0, -1.0)) / 100

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(
        max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_double_mirror_is_identity(self, nfet, vgs, vds):
        double = PType(PType(nfet))
        assert double.current(vgs, vds) == pytest.approx(
            nfet.current(vgs, vds), rel=1e-12, abs=1e-30
        )


class TestCurveHelpers:
    def test_transfer_curve_shape_and_monotone(self, nfet):
        vgs = np.linspace(0.0, 1.0, 21)
        curve = transfer_curve(nfet, vgs, vds=0.5)
        assert curve.shape == (21,)
        assert np.all(np.diff(curve) > 0.0)

    def test_output_curve_passes_origin(self, nfet):
        vds = np.linspace(0.0, 1.0, 21)
        curve = output_curve(nfet, vds, vgs=0.8)
        assert curve[0] == pytest.approx(0.0)
        assert np.all(np.diff(curve) >= 0.0)

    def test_currents_broadcasting(self, nfet):
        grid = nfet.currents(np.array([[0.4], [0.8]]), np.array([0.2, 0.5]))
        assert grid.shape == (2, 2)


class TestDerivatives:
    def test_gm_positive_above_threshold(self, nfet):
        _, gm, _ = nfet.linearize_point(0.8, 0.5)
        assert gm > 0.0

    def test_gds_positive_and_small_in_saturation(self, nfet):
        _, _, g_sat = nfet.linearize_point(0.8, 0.9)
        _, _, g_lin = nfet.linearize_point(0.8, 0.05)
        assert 0.0 < g_sat < g_lin

    def test_gm_matches_manual_difference(self, nfet):
        dv = 1e-4
        manual = (nfet.current(0.8 + dv, 0.5) - nfet.current(0.8 - dv, 0.5)) / (2 * dv)
        _, gm, _ = nfet.linearize_point(0.8, 0.5)
        assert gm == pytest.approx(manual)


class _ForwardOnly(FETModel):
    """States its I-V only as the array kernel."""

    def _forward_currents(self, vgs, vds):
        return 1e-5 * np.tanh(4.0 * vds) * np.exp(2.0 * vgs)


class _Neither(FETModel):
    """States no I-V at all."""


class TestDerivedScalarForms:
    @pytest.mark.parametrize("vgs, vds", [(0.7, 0.4), (0.3, -0.6), (-0.2, 0.0)])
    def test_current_is_one_point_currents(self, vgs, vds):
        device = _ForwardOnly()
        assert device.current(vgs, vds) == float(device.currents(vgs, vds))
        assert type(device.current(vgs, vds)) is float

    def test_missing_iv_raises_type_error(self):
        device = _Neither()
        with pytest.raises(TypeError, match="_Neither"):
            device.current(0.5, 0.5)
        with pytest.raises(TypeError, match="_Neither"):
            device.currents(np.array([0.5]), np.array([0.5]))

    @pytest.mark.parametrize("vgs, vds", [(0.7, 0.4), (0.3, -0.6), (1.0, 0.02)])
    def test_linearize_point_is_one_point_linearize(self, vgs, vds):
        table = TabulatedFET.from_model(
            AlphaPowerFET(), np.linspace(-0.3, 1.3, 17), np.linspace(0.0, 1.3, 14)
        )
        point = table.linearize_point(vgs, vds)
        batch = table.linearize(np.array([vgs, 0.1]), np.array([vds, 0.2]))
        assert point == tuple(float(column[0]) for column in batch)
        assert all(type(value) is float for value in point)
