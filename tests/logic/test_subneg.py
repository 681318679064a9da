"""SUBNEG machine: semantics, programs, gate-level equivalence."""

import pytest

from repro.logic.subneg import (
    SubnegMachine,
    counting_program,
    sort_with_machine,
    sorting_program,
)


class TestMachineBasics:
    def test_word_width_validation(self):
        with pytest.raises(ValueError):
            SubnegMachine(memory=[0] * 8, word_bits=1)

    def test_memory_defensively_copied(self):
        memory = [3, 4, -1, 1, 2, 0]
        machine = SubnegMachine(memory=[5, 5, -1, 7, 3, 0])
        original = list(memory)
        SubnegMachine(memory=memory)
        assert memory == original

    def test_single_subtract_halts(self):
        # mem[4] -= mem[3]: 3 - 5 < 0 -> branch to -1 (halt).
        machine = SubnegMachine(memory=[3, 4, -1, 5, 3, 0])
        steps = machine.run()
        assert steps == 1
        assert machine.memory[4] == (3 - 5) % (1 << 16)

    def test_branch_not_taken_falls_through(self):
        # First: mem[7] -= mem[6] = 9 - 1 > 0: fall through to halt-trick.
        memory = [6, 7, -1, 8, 8, -1, 1, 10, 0]
        machine = SubnegMachine(memory=memory)
        machine.run()
        assert machine.memory[7] == 9

    def test_runaway_detection(self):
        # Infinite loop: subtracting zero always branches back to 0.
        memory = [3, 3, 0, 0]
        with pytest.raises(RuntimeError):
            SubnegMachine(memory=memory, max_steps=100).run()

    def test_pc_out_of_bounds(self):
        machine = SubnegMachine(memory=[0, 1, 100, 0])
        with pytest.raises(IndexError):
            machine.run(100)


class TestCountingProgram:
    @pytest.mark.parametrize("count", [1, 3, 10, 25])
    def test_counts_to_zero(self, count):
        memory, counter = counting_program(count)
        machine = SubnegMachine(memory=memory)
        steps = machine.run()
        assert machine.memory[counter] == 0
        assert steps == 2 * count - 1  # subtract + goto per loop, final halt

    def test_validation(self):
        with pytest.raises(ValueError):
            counting_program(0)

    def test_gate_level_agrees_with_behavioural(self):
        memory, counter = counting_program(6)
        behavioural = SubnegMachine(memory=memory)
        gate_level = SubnegMachine(memory=memory, word_bits=8, use_gate_level=True)
        behavioural.run()
        gate_level.run()
        assert behavioural.memory[counter] == gate_level.memory[counter] == 0


class TestSortingProgram:
    def test_sorts(self):
        assert sorting_program([5, 2, 9, 1, 3]) == [1, 2, 3, 5, 9]

    def test_already_sorted(self):
        assert sorting_program([1, 2, 3]) == [1, 2, 3]

    def test_duplicates(self):
        assert sorting_program([4, 4, 1, 1]) == [1, 1, 4, 4]

    def test_gate_level_machine_sorts(self):
        machine = SubnegMachine(memory=[0] * 8, word_bits=8, use_gate_level=True)
        assert sort_with_machine([7, 3, 5, 1], machine) == [1, 3, 5, 7]

    def test_faulty_machine_missorts(self):
        # Stuck borrow flips every comparison: the sort visibly breaks.
        machine = SubnegMachine(
            memory=[0] * 8, word_bits=8, use_gate_level=True,
            faults={"borrow": True},
        )
        assert sort_with_machine([3, 1, 2], machine) != [1, 2, 3]


class TestGateLevelArithmetic:
    @pytest.mark.parametrize(
        "minuend,subtrahend",
        [(0, 0), (1, 1), (10, 3), (3, 10), (255, 1), (0, 255), (128, 128)],
    )
    def test_matches_modular_arithmetic(self, minuend, subtrahend):
        machine = SubnegMachine(memory=[0] * 4, word_bits=8, use_gate_level=True)
        result, negative = machine._subtract(minuend, subtrahend)
        assert result == (minuend - subtrahend) % 256
        assert negative == (minuend - subtrahend <= 0)
