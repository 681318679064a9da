"""The worklist structural seed against its rescanning fixpoint oracle.

:func:`~repro.circuit.continuation.structural_seed` fires the same rules
in the same order as :func:`scalar_oracle.fixpoint_seed` — sources pinned
to a fixpoint, then the first eligible FET, else the first eligible
resistor, then the sources again — but finds each next rule from a
worklist instead of rescanning the netlist.  Every seed here must equal
the oracle's bitwise, and a long chain must seed in linear time.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.continuation import structural_seed
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC, Pulse
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from ring_oscillator import build_ring_oscillator
from scalar_oracle import fixpoint_seed


def assert_seed_matches(circuit, time_s=None):
    system = circuit.build_system()
    seed = structural_seed(system, time_s=time_s)
    assert np.array_equal(seed, fixpoint_seed(system, time_s=time_s))


@pytest.mark.parametrize("vin", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_stages", [1, 5, 200, 600])
def test_inverter_chain(n_stages, vin):
    circuit = build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=DC(vin)
    )
    assert_seed_matches(circuit)


@pytest.mark.parametrize("n_stages", [3, 5])
def test_ring_oscillator(n_stages):
    assert_seed_matches(build_ring_oscillator(AlphaPowerFET(), n_stages=n_stages))


@pytest.mark.parametrize("time_s", [0.0, 0.5e-9])
def test_pulse_input_at_time(time_s):
    stimulus = Pulse(0.0, 1.0, delay_s=1e-10, rise_s=1e-12, fall_s=1e-12,
                     width_s=1e-9)
    circuit = build_inverter_chain(AlphaPowerFET(), n_stages=8,
                                   input_waveform=stimulus)
    assert_seed_matches(circuit, time_s=time_s)


# -- the circuits of test_continuation.py ------------------------------------


def _source_behind_resistor():
    c = Circuit()
    c.add_voltage_source("V1", "vdd", "0", DC(1.0))
    c.add_resistor("R1", "vdd", "a", 1e3)
    c.add_voltage_source("V2", "b", "a", DC(0.5))
    c.add_resistor("RB", "b", "0", 1e6)
    return c


def _floating_gate_load():
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_fet("M1", "out", "float", "0", AlphaPowerFET())
    c.add_resistor("RL", "vdd", "out", 1e5)
    return c


def _current_driven_gate():
    c = Circuit()
    c.add_current_source("I1", "0", "g", DC(1e-6))
    c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
    c.add_resistor("RD", "d", "0", 1e4)
    return c


def _divider():
    c = Circuit()
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_resistor("R1", "a", "b", 1e3)
    c.add_resistor("R2", "b", "0", 1e3)
    return c


def _rc_pulse():
    c = Circuit()
    c.add_voltage_source(
        "V1", "a", "0",
        Pulse(0.0, 1.0, delay_s=1e-10, rise_s=1e-11, fall_s=1e-11,
              width_s=5e-10),
    )
    c.add_resistor("R1", "a", "b", 1e3)
    c.add_capacitor("C1", "b", "0", 1e-13)
    return c


def _pulsed_chain(n_stages):
    stimulus = Pulse(0.0, 1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
                     width_s=2e-10, period_s=4e-10)
    return build_inverter_chain(AlphaPowerFET(), n_stages=n_stages,
                                input_waveform=stimulus)


CONTINUATION_FIXTURES = {
    "chain1": lambda: build_inverter_chain(AlphaPowerFET(), n_stages=1),
    "chain4": lambda: build_inverter_chain(AlphaPowerFET(), n_stages=4),
    "chain8": lambda: build_inverter_chain(AlphaPowerFET(), n_stages=8),
    "chain16": lambda: build_inverter_chain(AlphaPowerFET(), n_stages=16),
    "pulsed_chain8": lambda: _pulsed_chain(8),
    "ring3": lambda: build_ring_oscillator(AlphaPowerFET(), n_stages=3),
    "source_behind_resistor": _source_behind_resistor,
    "floating_gate_load": _floating_gate_load,
    "current_driven_gate": _current_driven_gate,
    "divider": _divider,
    "rc_pulse": _rc_pulse,
}


@pytest.mark.parametrize("time_s", [None, 0.0, 0.5e-9])
@pytest.mark.parametrize("name", sorted(CONTINUATION_FIXTURES))
def test_continuation_fixture(name, time_s):
    assert_seed_matches(CONTINUATION_FIXTURES[name](), time_s=time_s)


# -- rule-order corner cases ----------------------------------------------------


@pytest.mark.parametrize("pull_up_first", [True, False])
def test_first_fet_in_element_order_wins_a_contested_drain(pull_up_first):
    # Both FETs are on and both could assign "out": the one listed
    # first fires, whichever rail it copies.
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    fets = [
        ("MP", "out", "0", "vdd", PType(AlphaPowerFET())),
        ("MN", "out", "vdd", "0", AlphaPowerFET()),
    ]
    for fet in fets if pull_up_first else fets[::-1]:
        c.add_fet(*fet)
    system = c.build_system()
    seed = structural_seed(system)
    assert np.array_equal(seed, fixpoint_seed(system))
    assert system.voltage_of(seed, "out") == (1.0 if pull_up_first else 0.0)


def test_fet_beats_earlier_resistor():
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_resistor("RL", "vdd", "out", 1e5)  # listed first, fires last
    c.add_fet("MN", "out", "vdd", "0", AlphaPowerFET())
    system = c.build_system()
    seed = structural_seed(system)
    assert np.array_equal(seed, fixpoint_seed(system))
    assert system.voltage_of(seed, "out") == 0.0


def test_floating_source_chain_pinned_after_a_switch():
    # Floating sources a-b-c-d, listed against their propagation order:
    # once a FET switch fixes one end, every node follows its one path
    # from that end, before the other end's switch may fire.
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("V3", "c", "d", DC(0.3))
    c.add_voltage_source("V2", "b", "c", DC(0.2))
    c.add_voltage_source("V1", "a", "b", DC(0.1))
    c.add_fet("MN", "a", "vdd", "0", AlphaPowerFET())
    c.add_fet("MP", "d", "0", "vdd", PType(AlphaPowerFET()))
    c.add_resistor("RA", "a", "0", 1e4)
    c.add_resistor("RD", "d", "0", 1e4)
    assert_seed_matches(c)


# -- random netlists ------------------------------------------------------------

_NODES = ["0", "gnd", "vdd", "n0", "n1", "n2"]
# Each FET polarity with the rail its source usually sits on.
_SWITCHES = [(AlphaPowerFET(), "0"), (PType(AlphaPowerFET()), "vdd")]


@st.composite
def random_netlists(draw):
    """Random R/V/FET netlists over a small node pool, most with a rail.

    A small pool makes nodes that several FETs and resistors could all
    assign, and floating sources whose terminals become known only
    through propagation, the common case.  FET drains are inner nodes
    and FET sources mostly sit on their polarity's rail, so switches
    that are on and contest a drain are frequent.  Sources are kept a
    forest (a voltage-source loop is rejected at ``build_system``).
    """
    circuit = Circuit("random")
    root = {node: node for node in _NODES}
    root["gnd"] = "0"

    def find(node):
        while root[node] != node:
            node = root[node]
        return node

    node = st.sampled_from(_NODES)
    rail = st.sampled_from(["0", "vdd"])
    inner = st.sampled_from(_NODES[3:])
    level = st.sampled_from([0.0, 0.3, 0.5, 1.0, -0.4, 1.2])
    waveform = st.one_of(
        level.map(DC),
        level.map(lambda v: Pulse(0.0, v, delay_s=1e-10, rise_s=1e-11,
                                  fall_s=1e-11, width_s=1e-10)),
    )
    if draw(st.integers(0, 3)):
        root["vdd"] = "0"
        circuit.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    kinds = st.lists(st.sampled_from("RVFF"), min_size=6, max_size=24)
    for k, kind in enumerate(draw(kinds)):
        if kind == "R":
            circuit.add_resistor(f"R{k}", draw(node), draw(node), 1e3)
        elif kind == "F":
            device, home = draw(st.sampled_from(_SWITCHES))
            source = draw(st.just(home) | node)
            circuit.add_fet(f"M{k}", draw(inner), draw(rail | node), source, device)
        else:
            p, n = draw(node), draw(node)
            if find(p) != find(n):
                root[find(p)] = find(n)
                circuit.add_voltage_source(f"V{k}", p, n, draw(waveform))
    if not circuit.node_names:
        circuit.add_resistor("RN", "n0", "0", 1e3)
    return circuit


@given(
    circuit=random_netlists(),
    time_s=st.sampled_from([None, 0.0, 1.5e-10]),
)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_netlists(circuit, time_s):
    assert_seed_matches(circuit, time_s=time_s)


def test_seed_scales_linearly():
    # The rescanning fixpoint costs ~11 s here (quadratic in stages).
    system = build_inverter_chain(AlphaPowerFET(), n_stages=4800).build_system()
    start = time.perf_counter()
    seed = structural_seed(system)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert system.voltage_of(seed, "s4800") == 0.0
