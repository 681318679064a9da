"""Cross-cutting invariants every device model must satisfy.

These property-based tests run the same physical sanity checks over the
whole device zoo: passivity at zero drain bias, current sign following
the drain bias, monotonicity in gate drive, and the p-type mirror
symmetry.  A new device model added to the package gets this safety net
by being listed in the fixtures below.  One API invariant rides along:
how a sweep executes is set only through ``ExecutionPolicy``.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro

from repro.circuit.netlist import Circuit
from repro.circuit.solver import solve_dc
from repro.circuit.waveforms import DC
from repro.devices.base import PType
from repro.devices.contacts import SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET, TabulatedFET
from repro.devices.fabric import CNTFabricFET
from repro.devices.reference import trigate_intel_22nm
from repro.experiments.cascade import build_inverter_chain


def _device_zoo():
    alpha = AlphaPowerFET()
    return {
        "alpha-power": alpha,
        "non-saturating": NonSaturatingFET(),
        "trigate": trigate_intel_22nm(),
        # An InAs-HEMT-like point: high gm, low V_T, soft saturation.
        "inas-hemt": AlphaPowerFET(
            k_a_per_v_alpha=1.35e-3,
            vt=0.12,
            alpha=1.25,
            sat_fraction=0.5,
            channel_modulation=0.25,
            subthreshold_ideality=1.4,
        ),
        "series-r": SeriesResistanceFET(alpha, 10e3, 10e3),
        "tabulated": TabulatedFET.from_model(
            alpha, np.linspace(-0.2, 1.2, 25), np.linspace(0.0, 1.2, 21)
        ),
        "fabric": CNTFabricFET([alpha] * 3, n_metallic=0),
    }


ZOO = _device_zoo()
bias = st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2))


@pytest.mark.parametrize("name", sorted(ZOO))
class TestUniversalInvariants:
    @given(vgs=st.floats(-0.5, 1.2))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_passive_at_zero_vds(self, name, vgs):
        assert ZOO[name].current(vgs, 0.0) == pytest.approx(0.0, abs=1e-15)

    @given(b=bias)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_forward_current_nonnegative(self, name, b):
        vgs, vds = b
        assert ZOO[name].current(vgs, vds) >= -1e-18

    @given(b=bias)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_monotone_nondecreasing_in_gate(self, name, b):
        vgs, vds = b
        device = ZOO[name]
        assert device.current(vgs + 0.05, vds) >= device.current(vgs, vds) - 1e-15

    @given(b=bias)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_monotone_nondecreasing_in_drain(self, name, b):
        vgs, vds = b
        device = ZOO[name]
        assert device.current(vgs, vds + 0.05) >= device.current(vgs, vds) - 1e-15

    @given(b=bias)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ptype_mirror(self, name, b):
        vgs, vds = b
        device = ZOO[name]
        mirrored = PType(device)
        assert mirrored.current(-vgs, -vds) == pytest.approx(
            -device.current(vgs, vds), rel=1e-9, abs=1e-18
        )


class TestBallisticDeviceInvariants:
    """The physical devices are expensive; spot-check the same laws."""

    @pytest.mark.parametrize("vgs,vds", [(0.0, 0.3), (0.4, 0.1), (0.6, 0.5)])
    def test_cntfet_nonnegative_and_passive(self, reference_cntfet, vgs, vds):
        assert reference_cntfet.current(vgs, vds) >= 0.0
        assert reference_cntfet.current(vgs, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_cntfet_gate_monotone(self, reference_cntfet):
        sweep = [reference_cntfet.current(v, 0.5) for v in (0.1, 0.3, 0.5, 0.7)]
        assert all(a < b for a, b in zip(sweep, sweep[1:]))

    def test_gnrfet_drain_monotone(self, reference_gnrfet):
        sweep = [reference_gnrfet.current(0.5, v) for v in (0.05, 0.2, 0.4, 0.6)]
        assert all(a < b for a, b in zip(sweep, sweep[1:]))

    def test_tfet_reverse_current_grows_with_gate_drive(self, reference_tfet):
        magnitudes = [
            abs(reference_tfet.current(vg, -0.5)) for vg in (-0.5, -1.0, -1.5, -2.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(magnitudes, magnitudes[1:]))


# -- netlist/stamp invariants (property-based) --------------------------------


@st.composite
def resistor_networks(draw):
    """A random connected R network driven by one source, grounded via a chain."""
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    circuit = Circuit("random-linear")
    circuit.add_voltage_source(
        "VS", "n0", "0", DC(draw(st.floats(min_value=-2.0, max_value=2.0)))
    )
    previous = "0"
    for i, node in enumerate(nodes):
        r = draw(st.floats(min_value=1e2, max_value=1e6))
        circuit.add_resistor(f"Rchain{i}", node, previous, r)
        previous = node
    extra_edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.floats(min_value=1e2, max_value=1e6),
            ),
            max_size=4,
        )
    )
    for k, (i, j, r) in enumerate(extra_edges):
        if i != j:
            circuit.add_resistor(f"Rx{k}", nodes[i], nodes[j], r)
    if draw(st.booleans()):
        sink = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        level = draw(st.floats(min_value=-1e-4, max_value=1e-4))
        circuit.add_current_source("IS", nodes[sink], "0", DC(level))
    return circuit


class TestStampInvariants:
    """Properties every compiled netlist must satisfy, on random circuits."""

    @given(circuit=resistor_networks())
    @settings(max_examples=25, deadline=None)
    def test_kcl_residual_vanishes_at_solution(self, circuit):
        system = circuit.build_system()
        x = solve_dc(system)
        residual, _ = system.evaluate(x)
        assert float(np.max(np.abs(residual))) < 1e-8

    @given(circuit=resistor_networks(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_only_jacobian_is_symmetric(self, circuit, seed):
        """R/V/I stamps are reciprocal: J = J^T at any iterate."""
        system = circuit.build_system()
        x = np.random.default_rng(seed).normal(size=system.size)
        _, jacobian = system.evaluate(x)
        jacobian = np.asarray(jacobian)
        assert np.array_equal(jacobian, jacobian.T)

    @pytest.mark.parametrize("n_stages", (1, 3))
    def test_kcl_residual_vanishes_for_fet_chains(self, n_stages):
        chain = build_inverter_chain(
            AlphaPowerFET(), n_stages=n_stages, input_waveform=DC(0.0)
        )
        system = chain.build_system()
        x = solve_dc(system)
        residual, _ = system.evaluate(x)
        assert float(np.max(np.abs(residual))) < 1e-8


# Execution settings live on ``ExecutionPolicy`` (its dataclass fields),
# never as loose per-call parameters.
EXECUTION_PARAMETERS = frozenset({"workers", "chunk_size"})


def _public_callables():
    """``(qualified name, callable)`` of every public function and method
    defined in ``repro`` (the ``repro.lint`` tool excluded)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.lint" or info.name.startswith("repro.lint."):
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != info.name:
                continue
            if inspect.isfunction(value):
                yield f"{info.name}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_public_signature_takes_loose_execution_knobs():
    offenders = [
        f"{name}({param})"
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if param in EXECUTION_PARAMETERS
    ]
    assert offenders == []
