"""SUBNEG one-instruction computer — the CNT computer's instruction set.

Shulaker's carbon-nanotube computer (Nature 501, 526 (2013); celebrated
by the paper's Ref. [20, 21]) executed the one-instruction SUBNEG
("subtract and branch if negative") ISA, demonstrating counting and
sorting programs on 178 CNT-FETs.  This module provides:

* :class:`SubnegMachine` — a SUBNEG interpreter whose subtraction can be
  delegated to the gate-level ripple subtractor (with optional stuck-at
  faults), tying material-level yield to program-level correctness;
* the :func:`counting_program` and :func:`sorting_program` generators —
  the two workloads the CNT computer ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.gates import LogicNetlist, build_ripple_subtractor

__all__ = [
    "SubnegMachine",
    "counting_program",
    "sorting_program",
]


@dataclass
class SubnegMachine:
    """A SUBNEG machine with word-addressed memory.

    Parameters
    ----------
    memory:
        Initial data/program memory (list of ints).  Program and data
        share the address space, Harvard-style split is not enforced.
    word_bits:
        Datapath width; arithmetic wraps to this width via the gate-level
        subtractor when ``use_gate_level`` is on, and is exact Python
        arithmetic otherwise.
    use_gate_level:
        Route every subtraction through the ripple-borrow subtractor
        netlist (slower but faultable).
    faults:
        Stuck-at faults applied to the subtractor netlist, mapping net
        name to the stuck boolean value.
    """

    memory: list[int]
    word_bits: int = 16
    use_gate_level: bool = False
    faults: dict[str, bool] = field(default_factory=dict)
    max_steps: int = 100000
    _alu: LogicNetlist | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.word_bits < 2:
            raise ValueError(f"need at least 2-bit words, got {self.word_bits}")
        self.memory = list(self.memory)  # defensive copy: run() mutates it
        if self.use_gate_level or self.faults:
            self._alu = build_ripple_subtractor(self.word_bits)
            self.use_gate_level = True

    # -- arithmetic --------------------------------------------------------
    def _subtract(self, minuend: int, subtrahend: int) -> tuple[int, bool]:
        """(b - a) mod 2^n and the borrow (negative) flag."""
        mask = (1 << self.word_bits) - 1
        if not self.use_gate_level:
            raw = minuend - subtrahend
            return raw & mask, raw <= 0
        inputs = {"bin0": False}
        for bit in range(self.word_bits):
            inputs[f"a{bit}"] = bool((minuend >> bit) & 1)
            inputs[f"b{bit}"] = bool((subtrahend >> bit) & 1)
        outputs = self._alu.outputs(inputs, faults=self.faults or None)
        result = 0
        for bit in range(self.word_bits):
            if outputs[f"d{bit}"]:
                result |= 1 << bit
        negative = outputs["borrow"] or result == 0
        return result, negative

    # -- execution ----------------------------------------------------------
    def step(self, pc: int) -> int:
        """Execute the instruction at ``pc``; return the next pc (-1 halts)."""
        a = self.memory[pc]
        b = self.memory[pc + 1]
        c = self.memory[pc + 2]
        result, negative = self._subtract(self.memory[b], self.memory[a])
        self.memory[b] = result
        return c if negative else pc + 3

    def run(self, pc: int = 0) -> int:
        """Run until a negative pc (halt); returns executed step count."""
        steps = 0
        while pc >= 0:
            if pc + 2 >= len(self.memory):
                raise IndexError(f"pc {pc} walks off memory of {len(self.memory)} words")
            pc = self.step(pc)
            steps += 1
            if steps > self.max_steps:
                raise RuntimeError(f"program exceeded {self.max_steps} steps")
        return steps


# -- reference programs (the CNT computer's demo workloads) ----------------
def counting_program(count_to: int) -> tuple[list[int], int]:
    """SUBNEG memory image that counts ``count_to`` down to zero.

    Layout: instructions at 0..5, data after.  Returns (memory, counter
    address); after :meth:`SubnegMachine.run` the counter reads 0.
    """
    if count_to < 1:
        raise ValueError(f"count must be >= 1, got {count_to}")
    one_addr, counter_addr, zero_addr = 6, 7, 8
    # Instruction 0: mem[counter] -= mem[one]; if result <= 0 halt (-1).
    # Otherwise execution falls through to instruction 3, which computes
    # mem[zero] -= mem[zero] = 0 (always <= 0) and so unconditionally
    # branches back to instruction 0 — the SUBNEG idiom for "goto".
    memory = [
        one_addr, counter_addr, -1,
        zero_addr, zero_addr, 0,
        1,          # constant one
        count_to,   # counter
        0,          # scratch zero
    ]
    return memory, counter_addr


def sorting_program(values: list[int]) -> list[int]:
    """Bubble-sort a list with repeated SUBNEG compare-swap passes.

    SUBNEG bubble sort in software: rather than emit the (long) SUBNEG
    instruction stream, each compare-and-swap is executed on a
    :class:`SubnegMachine` primitive — mirroring how the CNT computer
    demonstration decomposed sorting into SUBNEG steps.  Returns the
    sorted list; the machine arithmetic (and its faults) decide the
    comparisons, so a faulty datapath visibly mis-sorts.
    """
    return _sort_with_machine(values, SubnegMachine(memory=[0] * 16))


def _sort_with_machine(values: list[int], machine: SubnegMachine) -> list[int]:
    data = list(values)
    n = len(data)
    for i in range(n):
        for j in range(n - 1 - i):
            # compare data[j] > data[j+1] via machine subtraction
            _, negative = machine._subtract(data[j], data[j + 1])
            # negative means data[j] - data[j+1] <= 0, i.e. already ordered
            if not negative:
                data[j], data[j + 1] = data[j + 1], data[j]
    return data


def sort_with_machine(values: list[int], machine: SubnegMachine) -> list[int]:
    """Public wrapper of the machine-arithmetic bubble sort."""
    return _sort_with_machine(values, machine)


__all__.append("sort_with_machine")
