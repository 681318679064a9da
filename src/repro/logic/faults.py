"""Fault injection: from tube-level defects to program-level failure.

Closes the loop of the paper's Section V: material imperfections
(metallic tubes, missing tubes) become stuck-at faults in the gate-level
datapath, and a Monte-Carlo sweep measures the *functional yield* — the
fraction of fabricated one-bit computers that still run their counting
and sorting programs correctly, as Shulaker's flow had to guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.sweep import ExecutionPolicy, SweepPlan, ensure_seed
from repro.integration.yields import GateYieldModel
from repro.logic.gates import LogicNetlist, build_ripple_subtractor
from repro.logic.subneg import SubnegMachine, counting_program, sort_with_machine

__all__ = [
    "sample_stuck_faults",
    "machine_with_faults",
    "runs_counting_program",
    "runs_sorting_program",
    "FunctionalYieldResult",
    "functional_yield",
]


def sample_stuck_faults(
    netlist: LogicNetlist,
    gate_failure_probability: float,
    rng: np.random.Generator,
) -> dict[str, bool]:
    """Draw stuck-at faults: each gate output fails i.i.d. and sticks 0/1.

    A short (surviving metallic tube) biases the output toward a stuck
    conducting level; we model the stuck value as a fair coin since the
    polarity depends on which network the tube sat in.
    """
    if not 0.0 <= gate_failure_probability <= 1.0:
        raise ValueError("failure probability must be in [0, 1]")
    faults: dict[str, bool] = {}
    for net in netlist.gates:
        if rng.random() < gate_failure_probability:
            faults[net] = bool(rng.random() < 0.5)
    return faults


def machine_with_faults(
    word_bits: int, faults: dict[str, bool], max_steps: int = 100000
) -> SubnegMachine:
    """A SUBNEG machine whose gate-level ALU carries the given faults."""
    machine = SubnegMachine(
        memory=[0] * 16, word_bits=word_bits, use_gate_level=True, faults=dict(faults),
        max_steps=max_steps,
    )
    return machine


def runs_counting_program(faults: dict[str, bool], count_to: int = 5) -> bool:
    """Does a faulted machine count down correctly (and halt)?"""
    memory, counter_addr = counting_program(count_to)
    machine = SubnegMachine(
        memory=memory, word_bits=8, use_gate_level=True, faults=dict(faults),
        max_steps=50 * count_to + 100,
    )
    try:
        machine.run(0)
    except (RuntimeError, IndexError):
        return False
    return machine.memory[counter_addr] == 0


def runs_sorting_program(
    faults: dict[str, bool], values: tuple[int, ...] = (3, 1, 2, 5, 4)
) -> bool:
    """Does a faulted machine sort correctly?"""
    machine = machine_with_faults(word_bits=8, faults=faults)
    try:
        result = sort_with_machine(list(values), machine)
    except (RuntimeError, IndexError):
        return False
    return result == sorted(values)


@dataclass(frozen=True)
class FunctionalYieldResult:
    """Monte-Carlo functional-yield estimate."""

    n_trials: int
    n_functional: int
    gate_failure_probability: float

    @property
    def functional_yield(self) -> float:
        return self.n_functional / self.n_trials


def _functional_trial_block(params_block, rng, payload):
    """Sweep-engine block kernel: fabricate and test one machine per trial."""
    word_bits, p_fail = payload
    alu = build_ripple_subtractor(word_bits)
    outcomes = []
    for _ in params_block:
        faults = sample_stuck_faults(alu, p_fail, rng)
        outcomes.append(
            not faults
            or (runs_counting_program(faults) and runs_sorting_program(faults))
        )
    return outcomes


def _trial_entry_validator(entry) -> bool:
    """Merge-boundary schema of one functional trial: a plain boolean."""
    return isinstance(entry, (bool, np.bool_))


def functional_yield(
    gate_model: GateYieldModel,
    n_trials: int = 200,
    word_bits: int = 8,
    seed: int | None = 1234,
    policy: ExecutionPolicy | None = None,
) -> FunctionalYieldResult:
    """Fraction of fabricated machines that pass counting AND sorting.

    Each trial fabricates one ALU: every gate output fails with the
    material model's per-gate failure probability; the machine must run
    both reference programs correctly to count as functional.  Trials
    run in substream blocks through the sweep engine — gate-level
    program simulation is pure Python, so this is the one Monte Carlo
    where a pooled ``policy`` (``workers`` > 1) buys real wall-clock on
    multi-core machines; results are identical either way.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    p_fail = 1.0 - gate_model.gate_yield
    sweep = SweepPlan(
        _functional_trial_block,
        vectorized=True,
        payload=(word_bits, p_fail),
        substream_block=32,
        validate=_trial_entry_validator,
    )
    outcomes = sweep.run(
        range(n_trials),
        seed=ensure_seed(seed),
        policy=policy,
    )
    return FunctionalYieldResult(
        n_trials=n_trials,
        n_functional=int(sum(outcomes)),
        gate_failure_probability=p_fail,
    )
