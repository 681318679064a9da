"""Contact resistance: series wrapper self-consistency, transfer-length model."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from contact_oracle import brentq_current
from repro.analysis.iv import saturation_index
from repro.devices.base import PType
from repro.devices.contacts import ContactModel, SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET
from repro.physics.constants import CNT_QUANTUM_RESISTANCE_OHM


def assert_matches_oracle(device, vgs, vds) -> None:
    """Batched ``currents`` and scalar ``current`` agree with the oracle.

    Both solves stop on brentq's rule, so below the absolute ``xtol`` of
    1e-18 A only agreement to that ``xtol`` is meaningful.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    expected = np.array([brentq_current(device, g, d) for g, d in zip(vgs, vds)])
    scalar = np.array([device.current(g, d) for g, d in zip(vgs, vds)])
    np.testing.assert_allclose(device.currents(vgs, vds), expected, rtol=1e-9, atol=1e-18)
    np.testing.assert_allclose(scalar, expected, rtol=1e-9, atol=1e-18)


_resistance = st.one_of(st.just(0.0), st.floats(0.0, 100e3))
_biases = st.lists(
    st.tuples(st.floats(-0.3, 1.2), st.floats(-1.0, 1.0)), min_size=1, max_size=8
)


@pytest.fixture
def inner():
    return AlphaPowerFET()


class TestAgainstBrentqOracle:
    @given(_biases, _resistance, _resistance)
    @settings(max_examples=60, deadline=None)
    def test_alpha_power_inner(self, biases, r_source, r_drain):
        device = SeriesResistanceFET(AlphaPowerFET(), r_source, r_drain)
        vgs, vds = zip(*biases)
        assert_matches_oracle(device, vgs, vds)

    @given(_biases, _resistance, _resistance)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cntfet_inner(self, reference_cntfet, biases, r_source, r_drain):
        device = SeriesResistanceFET(reference_cntfet, r_source, r_drain)
        vgs, vds = zip(*biases)
        assert_matches_oracle(device, vgs, vds)

    @pytest.mark.parametrize("r_source, r_drain", [(50e3, 50e3), (10e3, 90e3), (0.0, 0.0)])
    def test_transfer_and_output_families(self, reference_cntfet, r_source, r_drain):
        device = SeriesResistanceFET(reference_cntfet, r_source, r_drain)
        vgs = np.concatenate([np.linspace(-0.1, 1.2, 14), np.full(7, 0.7)])
        vds = np.concatenate([np.full(14, 0.5), np.linspace(-0.5, 0.5, 7)])
        assert_matches_oracle(device, vgs, vds)

    def test_off_state_keeps_intrinsic_current(self, inner, reference_cntfet):
        # I_intrinsic <= 0 (zero drain bias): nothing to solve.
        for device in (inner, reference_cntfet):
            wrapped = SeriesResistanceFET(device, 20e3, 40e3)
            assert_matches_oracle(wrapped, [0.5, -0.3, 1.0], [0.0, 0.0, 0.0])
            assert np.all(wrapped.currents([0.5, -0.3], 0.0) == 0.0)

    @pytest.mark.parametrize("r_source, r_drain", [(25e3, 25e3), (10e3, 90e3)])
    def test_p_type_mirror(self, inner, r_source, r_drain):
        nfet = SeriesResistanceFET(inner, r_source, r_drain)
        pfet = PType(nfet)
        vgs = np.array([-1.0, -0.6, -0.2, 0.3, -0.8])
        vds = np.array([-0.8, -0.3, -0.5, 0.4, 0.2])
        expected = np.array([-brentq_current(nfet, -g, -d) for g, d in zip(vgs, vds)])
        np.testing.assert_allclose(pfet.currents(vgs, vds), expected, rtol=1e-9, atol=1e-18)
        scalar = np.array([pfet.current(g, d) for g, d in zip(vgs, vds)])
        np.testing.assert_allclose(scalar, expected, rtol=1e-9, atol=1e-18)


class TestSeriesResistanceFET:
    def test_zero_resistance_is_identity(self, inner):
        wrapped = SeriesResistanceFET(inner, 0.0, 0.0)
        assert wrapped.current(0.8, 0.5) == pytest.approx(inner.current(0.8, 0.5))

    def test_validation(self, inner):
        with pytest.raises(ValueError):
            SeriesResistanceFET(inner, -1.0, 0.0)

    def test_current_always_reduced(self, inner):
        wrapped = SeriesResistanceFET(inner, 10e3, 10e3)
        for vgs, vds in [(0.5, 0.3), (0.8, 0.6), (1.0, 1.0)]:
            assert 0.0 < wrapped.current(vgs, vds) < inner.current(vgs, vds)

    def test_internal_bias_consistency(self, inner):
        r_s, r_d = 20e3, 30e3
        wrapped = SeriesResistanceFET(inner, r_s, r_d)
        vgs, vds = 0.9, 0.8
        current = wrapped.current(vgs, vds)
        internal = inner.current(vgs - current * r_s, vds - current * (r_s + r_d))
        assert internal == pytest.approx(current, rel=1e-9)

    def test_off_state_unaffected(self, inner):
        wrapped = SeriesResistanceFET(inner, 50e3, 50e3)
        assert wrapped.current(0.0, 0.5) == pytest.approx(
            inner.current(0.0, 0.5), rel=0.01
        )

    def test_negative_vds_swaps_roles(self, inner):
        asym = SeriesResistanceFET(inner, 10e3, 90e3)
        # Mirrored device must equal explicit role swap.
        mirrored = SeriesResistanceFET(inner, 90e3, 10e3)
        assert asym.current(0.5, -0.4) == pytest.approx(
            -mirrored.current(0.9, 0.4), rel=1e-9
        )

    def test_linearises_saturated_device(self, reference_cntfet):
        # The Fig. 4 effect: 2 x 50 kOhm turns saturation into a resistor.
        wrapped = SeriesResistanceFET(reference_cntfet, 50e3, 50e3)
        vds = np.linspace(0.0, 0.5, 21)
        ideal = np.array([reference_cntfet.current(0.7, float(v)) for v in vds])
        degraded = np.array([wrapped.current(0.7, float(v)) for v in vds])
        assert saturation_index(vds, ideal) > 0.9
        assert saturation_index(vds, degraded) < 0.3

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 100e3))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_current_bounded_by_intrinsic(self, inner, vgs, vds, resistance):
        wrapped = SeriesResistanceFET(inner, resistance, resistance)
        assert wrapped.current(vgs, vds) <= inner.current(vgs, vds) + 1e-18


class TestContactModel:
    def test_long_contact_floor(self):
        model = ContactModel(transfer_length_nm=40.0, interface_resistance_ohm=2000.0)
        floor = model.resistance_ohm(10000.0)
        assert floor == pytest.approx(
            CNT_QUANTUM_RESISTANCE_OHM / 2.0 + 2000.0, rel=1e-3
        )

    def test_paper_11kohm_series_floor(self):
        # Ref. [16]: total device series resistance as low as ~11 kOhm.
        total = ContactModel().device_series_resistance_ohm(1000.0)
        assert 9e3 < total < 12e3

    def test_short_contacts_blow_up(self):
        model = ContactModel()
        assert model.resistance_ohm(5.0) > 3.0 * model.resistance_ohm(500.0)

    def test_monotone_decreasing_in_length(self):
        model = ContactModel()
        lengths = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0]
        resistances = [model.resistance_ohm(l) for l in lengths]
        assert all(a > b for a, b in zip(resistances, resistances[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ContactModel(transfer_length_nm=0.0)
        with pytest.raises(ValueError):
            ContactModel().resistance_ohm(0.0)

    def test_never_below_quantum_limit(self):
        model = ContactModel(interface_resistance_ohm=0.0)
        assert (
            model.device_series_resistance_ohm(1e6)
            >= CNT_QUANTUM_RESISTANCE_OHM * 0.999
        )
