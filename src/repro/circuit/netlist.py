"""Netlist container: named nodes, elements, and the unknown-vector layout.

A :class:`Circuit` collects elements (builder-style ``add_*`` methods),
assigns every non-ground node an index in the unknown vector and every
voltage source a branch-current index after the nodes.  Analyses
(:mod:`repro.circuit.dc`, :mod:`repro.circuit.transient`) consume the
assembled system through :meth:`Circuit.build_system`, which also
builds the one :class:`SolutionLayout` naming those columns.

Every analysis result is a :class:`Solution`: a stack of unknown
vectors, shape ``(..., size)``, plus that layout.  Its ``voltage``,
``source_current`` and ``transfer`` lookups select one column over the
last axis, read every ground alias as 0 V, and raise
:class:`UnknownName` (a :class:`CircuitError` and a ``KeyError``) for a
name the circuit does not have.

:meth:`MNASystem.evaluate` is a one-row call of the compiled stamp plan
of :mod:`repro.circuit.assembly`.  :meth:`Circuit.build_system` rejects
structurally invalid input before any numerics: an element type the
plan does not know raises
:class:`~repro.circuit.assembly.UnsupportedElement`, and a loop made
only of voltage sources raises :class:`VoltageSourceLoop`.  The
original element-walking evaluator is retained as
:meth:`MNASystem.evaluate_dense` — the independent reference the
equivalence tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.assembly import StampPlan
from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Element,
    GROUND_NAMES,
    Resistor,
    StampContext,
    VoltageSource,
)
from repro.devices.base import FETModel

__all__ = [
    "Circuit",
    "CircuitError",
    "EnsembleSolution",
    "Solution",
    "SolutionLayout",
    "UnknownName",
    "VoltageSourceLoop",
]


class CircuitError(RuntimeError):
    """Raised for malformed netlists or failed analyses."""


class UnknownName(CircuitError, KeyError):
    """A node or voltage-source name the circuit does not have."""

    # The plain message, not KeyError's quoted repr of it.
    __str__ = CircuitError.__str__


class VoltageSourceLoop(CircuitError):
    """A loop made only of voltage sources, named in ``sources``.

    Raised at ``build_system()``: the loop fixes no branch current and,
    unless its levels sum to zero, has no solution.
    """

    def __init__(self, sources: list[str]):
        self.sources = sources
        names = ", ".join(map(repr, sources))
        super().__init__(f"voltage sources form a loop: {names}")


def _voltage_source_loop(elements: list[Element]) -> list[str] | None:
    """Names of the sources on the first loop made only of voltage sources.

    Union-find over the source edges, every ground alias one node.  The
    accepted edges form a forest, so a source whose terminals are
    already joined closes a loop with the forest path between them.
    """
    root: dict[str, str] = {}
    forest: dict[str, list[tuple[str, str]]] = {}

    def find(node: str) -> str:
        while root.get(node, node) != node:
            node = root[node]
        return node

    for element in elements:
        if not isinstance(element, VoltageSource):
            continue
        p, n = ("0" if node in GROUND_NAMES else node for node in element.nodes)
        if find(p) == find(n):
            # Depth-first walk of the tree from p, carrying each path.
            pending = [(p, "", [element.name])]
            while pending:
                node, came_from, names = pending.pop()
                if node == n:
                    return names
                pending += [
                    (next_node, node, names + [name])
                    for next_node, name in forest.get(node, [])
                    if next_node != came_from
                ]
        root[find(p)] = find(n)
        forest.setdefault(p, []).append((n, element.name))
        forest.setdefault(n, []).append((p, element.name))
    return None


@dataclass(frozen=True)
class SolutionLayout:
    """The unknown-vector layout: node columns, then source branch columns.

    Built once by :meth:`Circuit.build_system`.  ``nodes`` maps each
    non-ground node and ``branches`` each voltage source to its column;
    every ground alias has no column (it is 0 V).
    """

    nodes: dict[str, int]
    branches: dict[str, int]

    def node_column(self, node: str) -> int | None:
        """Column of a node, or None for ground."""
        if node in GROUND_NAMES:
            return None
        try:
            return self.nodes[node]
        except KeyError:
            raise UnknownName(f"unknown node {node!r}") from None

    def branch_column(self, name: str) -> int:
        """Column of a voltage source's branch current."""
        try:
            return self.branches[name]
        except KeyError:
            raise UnknownName(f"unknown voltage source {name!r}") from None


@dataclass(frozen=True)
class Solution:
    """Solved unknown vectors ``samples`` (shape ``(..., size)``) and their layout.

    The leading axes index whatever the analysis stacks (sweep points,
    time samples, frequencies, instances; none for an operating
    point).  Each lookup returns one column over the last axis: an
    array of the leading shape, or a Python scalar when there is none.
    """

    layout: SolutionLayout
    samples: np.ndarray

    def voltage(self, node: str):
        """Voltage of a node [V] (zeros for a ground alias)."""
        return self._column(self.layout.node_column(node))

    def source_current(self, name: str):
        """Branch current through a voltage source [A] (positive p -> n inside)."""
        return self._column(self.layout.branch_column(name))

    def transfer(self, node: str):
        """Complex transfer function H(f) at a node of an AC solution."""
        return self.voltage(node)

    def _column(self, column: int | None):
        if column is None:
            trace = np.zeros(self.samples.shape[:-1], dtype=self.samples.dtype)
        else:
            trace = self.samples[..., column]
        return trace if trace.ndim else trace.item()


@dataclass(frozen=True)
class EnsembleSolution(Solution):
    """Solutions of many circuit instances: ``samples[i]`` is instance ``i``'s.

    ``converged[i]`` is False for an instance whose solve failed.
    """

    converged: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.samples.shape[0]

    @property
    def n_converged(self) -> int:
        return int(np.count_nonzero(self.converged))


class Circuit:
    """A flat netlist with named nodes (ground: '0' / 'gnd')."""

    def __init__(self, title: str = ""):
        self.title = title
        self.elements: list[Element] = []
        # A dict, not a set: it pickles in insertion order, so a circuit's
        # pickle (and a checkpoint digest over it) is the same in every
        # process whatever the string hash seed.
        self._names: dict[str, None] = {}
        self._node_order: list[str] = []
        self._node_index: dict[str, int] = {}
        self._sources: dict[str, VoltageSource] = {}

    # -- construction -----------------------------------------------------------
    def add(self, element: Element) -> Element:
        if element.name in self._names:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._names[element.name] = None
        for node in element.nodes:
            self._register_node(node)
        if isinstance(element, VoltageSource):
            element.branch_index = -1  # assigned in build_system
            self._sources[element.name] = element
        self.elements.append(element)
        return element

    def add_resistor(self, name: str, p: str, n: str, resistance_ohm: float) -> Resistor:
        return self.add(Resistor(name, p, n, resistance_ohm))

    def add_capacitor(self, name: str, p: str, n: str, capacitance_f: float) -> Capacitor:
        return self.add(Capacitor(name, p, n, capacitance_f))

    def add_voltage_source(self, name: str, p: str, n: str, waveform) -> VoltageSource:
        return self.add(VoltageSource(name, p, n, waveform))

    def add_current_source(self, name: str, p: str, n: str, waveform) -> CurrentSource:
        return self.add(CurrentSource(name, p, n, waveform))

    def add_fet(
        self, name: str, drain: str, gate: str, source: str, device: FETModel
    ) -> FET:
        return self.add(FET(name, drain, gate, source, device))

    def _register_node(self, node: str) -> None:
        if node in GROUND_NAMES or node in self._node_index:
            return
        self._node_index[node] = len(self._node_order)
        self._node_order.append(node)

    # -- system layout ------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        return list(self._node_order)

    @property
    def size(self) -> int:
        """Total number of unknowns (node voltages + source branch currents)."""
        return len(self._node_order) + len(self._sources)

    def source(self, name: str) -> VoltageSource:
        """The voltage source named ``name``."""
        try:
            return self._sources[name]
        except KeyError:
            raise UnknownName(f"unknown voltage source {name!r}") from None

    def build_system(self) -> "MNASystem":
        if not self.elements:
            raise CircuitError("empty circuit")
        if not self._node_order:
            raise CircuitError("circuit has no non-ground nodes")
        loop = _voltage_source_loop(self.elements)
        if loop is not None:
            raise VoltageSourceLoop(loop)
        for column, source in enumerate(self._sources.values(), len(self._node_order)):
            source.branch_index = column
        layout = SolutionLayout(
            nodes=dict(self._node_index),
            branches={
                name: source.branch_index for name, source in self._sources.items()
            },
        )
        return MNASystem(self, layout)


class MNASystem:
    """Assembled residual/Jacobian evaluator for a circuit.

    Compiles a :class:`~repro.circuit.assembly.StampPlan` at
    construction (raising
    :class:`~repro.circuit.assembly.UnsupportedElement` for element
    types the plan does not know).  :meth:`evaluate` is the plan's
    :meth:`~repro.circuit.assembly.StampPlan.evaluate_many` at one
    iterate.  ``update_capacitor_state`` refreshes capacitor history
    currents at an accepted transient solution.  ``layout`` names the
    unknown vector's columns; ``node_index`` is its node lookup.
    """

    def __init__(self, circuit: Circuit, layout: SolutionLayout):
        self.circuit = circuit
        self.layout = layout
        self.node_index = layout.node_column
        self.size = circuit.size
        self.n_nodes = len(layout.nodes)
        self._plan = StampPlan(self)
        self.update_capacitor_state = self._plan.update_capacitor_state

    def evaluate(self, x: np.ndarray, **kwargs):
        """Fresh residual F(x) and Jacobian dF/dx: a one-row ``evaluate_many``.

        Keyword arguments as :meth:`evaluate_dense`.  Sparse plans
        return the Jacobian as CSR on the plan's canonical pattern.
        """
        plan = self._plan
        x_stack = np.asarray(x, dtype=float)[None]
        residual, jacobian = plan.evaluate_many(x_stack, **kwargs)
        if plan.sparse_schedule is None:
            return residual[0], jacobian[0]
        return residual[0], plan.sparse_schedule.matrix(jacobian[0])

    def evaluate_dense(
        self,
        x: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        state: dict | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference element-walking evaluator (always fresh dense arrays).

        ``gmin``/``gmin_ref`` stamp the same node shunt (optionally
        anchored at a reference vector for pseudo-transient
        continuation) as the compiled plan.
        """
        residual = np.zeros(self.size)
        jacobian = np.zeros((self.size, self.size))
        ctx = StampContext(
            system=self,
            x=x,
            residual=residual,
            jacobian=jacobian,
            time_s=time_s,
            dt_s=dt_s,
            previous_x=previous_x if previous_x is not None else x,
            integrator=integrator,
            state=state if state is not None else {},
            source_scale=source_scale,
            gmin=gmin,
        )
        for element in self.circuit.elements:
            element.contribute(ctx)
        if gmin > 0.0:
            for i in range(self.n_nodes):
                anchor = 0.0 if gmin_ref is None else gmin_ref[i]
                residual[i] += gmin * (x[i] - anchor)
                jacobian[i, i] += gmin
        return residual, jacobian

    def voltage_of(self, x: np.ndarray, node: str) -> float:
        return Solution(self.layout, x).voltage(node)
