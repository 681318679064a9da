"""Gate-level logic and the SUBNEG one-bit computer (Shulaker scenario).

The fault runners are :func:`functional_yield`'s trial kernel: a trial
that draws a stuck-at fault runs the counting and sorting programs on
the faulty ripple subtractor.
"""

from repro.logic.faults import (
    FunctionalYieldResult,
    functional_yield,
    machine_with_faults,
    runs_counting_program,
    runs_sorting_program,
    sample_stuck_faults,
)
from repro.logic.gates import (
    GATE_FUNCTIONS,
    Gate,
    LogicNetlist,
    build_full_subtractor,
    build_ripple_subtractor,
)
from repro.logic.subneg import (
    SubnegMachine,
    counting_program,
    sort_with_machine,
    sorting_program,
)

__all__ = [
    "FunctionalYieldResult",
    "GATE_FUNCTIONS",
    "Gate",
    "LogicNetlist",
    "SubnegMachine",
    "build_full_subtractor",
    "build_ripple_subtractor",
    "counting_program",
    "functional_yield",
    "machine_with_faults",
    "runs_counting_program",
    "runs_sorting_program",
    "sample_stuck_faults",
    "sort_with_machine",
    "sorting_program",
]
