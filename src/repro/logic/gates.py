"""Gate-level combinational logic for the SUBNEG computer's datapath.

A :class:`LogicNetlist` is a DAG of boolean gates evaluated in
topological order, with optional stuck-at faults on any net.

The builders include the arithmetic cells a SUBNEG one-instruction
computer needs (full subtractor, ripple-borrow subtractor, zero/negative
detect) — the datapath of the paper's referenced CNT computer.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter

__all__ = [
    "Gate",
    "LogicNetlist",
    "GATE_FUNCTIONS",
    "build_full_subtractor",
    "build_ripple_subtractor",
]

GATE_FUNCTIONS = {
    "not": lambda a: not a,
    "buf": lambda a: a,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "nand": lambda a, b: not (a and b),
    "nor": lambda a, b: not (a or b),
    "xor": lambda a, b: a != b,
    "xnor": lambda a, b: a == b,
}


@dataclass(frozen=True)
class Gate:
    """One combinational gate: output net, kind, input nets."""

    output: str
    kind: str
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_FUNCTIONS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = GATE_FUNCTIONS[self.kind].__code__.co_argcount
        if len(self.inputs) != arity:
            raise ValueError(
                f"{self.kind} gate needs {arity} inputs, got {len(self.inputs)}"
            )


class LogicNetlist:
    """A combinational netlist with named primary inputs and outputs."""

    def __init__(self, name: str = ""):
        self.name = name
        self.gates: dict[str, Gate] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._order: list[str] | None = None

    def add_input(self, net: str) -> str:
        if net in self.gates or net in self.primary_inputs:
            raise ValueError(f"net {net!r} already defined")
        self.primary_inputs.append(net)
        return net

    def add_gate(self, output: str, kind: str, *inputs: str) -> str:
        if output in self.gates or output in self.primary_inputs:
            raise ValueError(f"net {output!r} already driven")
        self.gates[output] = Gate(output=output, kind=kind, inputs=tuple(inputs))
        self._order = None
        return output

    def mark_output(self, net: str) -> None:
        if net not in self.gates and net not in self.primary_inputs:
            raise ValueError(f"cannot mark unknown net {net!r} as output")
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)

    # -- evaluation --------------------------------------------------------
    def _topo_order(self) -> list[str]:
        if self._order is None:
            sorter: TopologicalSorter = TopologicalSorter()
            for gate in self.gates.values():
                sorter.add(gate.output, *gate.inputs)
            order = [
                net for net in sorter.static_order() if net in self.gates
            ]
            self._order = order
        return self._order

    def evaluate(
        self, inputs: dict[str, bool], faults: dict[str, bool] | None = None
    ) -> dict[str, bool]:
        """Evaluate all nets; ``faults`` maps net name -> stuck value."""
        missing = [net for net in self.primary_inputs if net not in inputs]
        if missing:
            raise ValueError(f"missing input values for {missing}")
        faults = faults or {}
        values: dict[str, bool] = {}
        for net in self.primary_inputs:
            values[net] = faults.get(net, bool(inputs[net]))
        for net in self._topo_order():
            gate = self.gates[net]
            if net in faults:
                values[net] = faults[net]
                continue
            args = [values[i] for i in gate.inputs]
            values[net] = bool(GATE_FUNCTIONS[gate.kind](*args))
        return values

    def outputs(
        self, inputs: dict[str, bool], faults: dict[str, bool] | None = None
    ) -> dict[str, bool]:
        values = self.evaluate(inputs, faults)
        return {net: values[net] for net in self.primary_outputs}

    # -- metrics ------------------------------------------------------------
    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def transistor_count(self) -> int:
        """CMOS transistor count (2 per input per gate, inverter = 2)."""
        return sum(2 * max(len(g.inputs), 1) for g in self.gates.values())


def build_full_subtractor(netlist: LogicNetlist, a: str, b: str, bin_: str, prefix: str):
    """Full subtractor: diff = a - b - bin; returns (diff_net, bout_net)."""
    x1 = netlist.add_gate(f"{prefix}_x1", "xor", a, b)
    diff = netlist.add_gate(f"{prefix}_d", "xor", x1, bin_)
    na = netlist.add_gate(f"{prefix}_na", "not", a)
    t1 = netlist.add_gate(f"{prefix}_t1", "and", na, b)
    nx1 = netlist.add_gate(f"{prefix}_nx1", "not", x1)
    t2 = netlist.add_gate(f"{prefix}_t2", "and", nx1, bin_)
    bout = netlist.add_gate(f"{prefix}_bo", "or", t1, t2)
    return diff, bout


def build_ripple_subtractor(n_bits: int, name: str = "sub") -> LogicNetlist:
    """N-bit ripple-borrow subtractor netlist computing a - b.

    Primary inputs: a0..a{n-1}, b0..b{n-1}; outputs d0..d{n-1} and
    ``borrow`` (1 when a < b, i.e. the result is negative in unsigned
    arithmetic) — exactly the "branch if negative" condition a SUBNEG
    machine needs.
    """
    if n_bits < 1:
        raise ValueError(f"need at least 1 bit, got {n_bits}")
    netlist = LogicNetlist(name)
    for i in range(n_bits):
        netlist.add_input(f"a{i}")
        netlist.add_input(f"b{i}")
    netlist.add_input("bin0")
    borrow = "bin0"
    for i in range(n_bits):
        diff, borrow = build_full_subtractor(
            netlist, f"a{i}", f"b{i}", borrow, prefix=f"fs{i}"
        )
        netlist.add_gate(f"d{i}", "buf", diff)
        netlist.mark_output(f"d{i}")
    netlist.add_gate("borrow", "buf", borrow)
    netlist.mark_output("borrow")
    return netlist
