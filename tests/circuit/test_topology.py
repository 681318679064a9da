"""Structurally invalid netlists are rejected at ``build_system()``.

A loop made only of voltage sources leaves its branch currents
undetermined (and, unless the levels sum to zero, has no solution).
``Circuit.build_system`` finds it with a union-find over the source
edges before any numerics and raises :class:`VoltageSourceLoop` naming
the loop's sources, instead of letting the continuation ladder fail on
it with a generic convergence error.
"""

import time

import pytest

from repro.circuit.netlist import Circuit, CircuitError, VoltageSourceLoop
from repro.circuit.waveforms import DC


def parallel_pair():
    c = Circuit("parallel-pair")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_voltage_source("V2", "a", "gnd", DC(0.5))
    c.add_resistor("R1", "a", "0", 1e3)
    return c


def three_source_loop():
    """V1, V2, V3 close a loop through two ground aliases; V4 hangs off it."""
    c = Circuit("three-source-loop")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_voltage_source("V4", "c", "a", DC(0.3))
    c.add_voltage_source("V2", "b", "a", DC(0.2))
    c.add_resistor("R1", "b", "c", 1e3)
    c.add_voltage_source("V3", "b", "GND", DC(1.2))
    return c


def source_triangle():
    """V2 starts at a node V1 already tied down; V3 closes the loop."""
    c = Circuit("source-triangle")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_voltage_source("V2", "a", "b", DC(0.4))
    c.add_voltage_source("V3", "b", "gnd", DC(0.6))
    c.add_resistor("R1", "b", "0", 1e3)
    return c


def grounded_source():
    c = Circuit("grounded-source")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_resistor("R1", "a", "0", 1e3)
    c.add_voltage_source("V2", "0", "gnd", DC(0.1))
    return c


LOOPS = {
    "parallel_pair": (parallel_pair, ["V1", "V2"]),
    "three_source_loop": (three_source_loop, ["V1", "V2", "V3"]),
    "source_triangle": (source_triangle, ["V1", "V2", "V3"]),
    "grounded_source": (grounded_source, ["V2"]),
}


@pytest.mark.parametrize("name", LOOPS)
def test_voltage_source_loop_rejected_at_build(name):
    build, sources = LOOPS[name]
    circuit = build()
    elapsed = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(VoltageSourceLoop) as info:
            circuit.build_system()
        elapsed.append(time.perf_counter() - start)
    assert isinstance(info.value, CircuitError)
    assert sorted(info.value.sources) == sources
    for source in sources:
        assert repr(source) in str(info.value)
    assert min(elapsed) < 1e-3


def test_source_tree_builds():
    """Stacked and star-connected sources form no loop."""
    c = Circuit("source-tree")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_voltage_source("V2", "b", "a", DC(0.5))
    c.add_voltage_source("V3", "c", "gnd", DC(0.2))
    c.add_voltage_source("V4", "d", "b", DC(0.1))
    for node in "abcd":
        c.add_resistor(f"R{node}", node, "0", 1e3)
    system = c.build_system()
    assert system.size == 8
