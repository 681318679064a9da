"""Gate-level netlists: evaluation, arithmetic cells, timing."""

import itertools

import pytest

from repro.logic.gates import (
    GATE_FUNCTIONS,
    Gate,
    LogicNetlist,
    build_full_subtractor,
    build_ripple_subtractor,
)


class TestGate:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate(output="x", kind="mux", inputs=("a", "b"))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate(output="x", kind="not", inputs=("a", "b"))
        with pytest.raises(ValueError):
            Gate(output="x", kind="nand", inputs=("a",))


class TestNetlistEvaluation:
    def test_truth_tables(self):
        for kind in ("and", "or", "nand", "nor", "xor", "xnor"):
            netlist = LogicNetlist()
            netlist.add_input("a")
            netlist.add_input("b")
            netlist.add_gate("y", kind, "a", "b")
            netlist.mark_output("y")
            for a, b in itertools.product([False, True], repeat=2):
                got = netlist.outputs({"a": a, "b": b})["y"]
                assert got == GATE_FUNCTIONS[kind](a, b)

    def test_redefinition_rejected(self):
        netlist = LogicNetlist()
        netlist.add_input("a")
        with pytest.raises(ValueError):
            netlist.add_input("a")
        netlist.add_gate("y", "not", "a")
        with pytest.raises(ValueError):
            netlist.add_gate("y", "buf", "a")

    def test_missing_inputs_detected(self):
        netlist = LogicNetlist()
        netlist.add_input("a")
        netlist.add_gate("y", "not", "a")
        with pytest.raises(ValueError):
            netlist.evaluate({})

    def test_unknown_output_mark(self):
        with pytest.raises(ValueError):
            LogicNetlist().mark_output("ghost")

    def test_deep_chain(self):
        netlist = LogicNetlist()
        netlist.add_input("a")
        previous = "a"
        for i in range(10):
            previous = netlist.add_gate(f"n{i}", "not", previous)
        netlist.mark_output(previous)
        assert netlist.outputs({"a": True})[previous] is True  # even inversions

    def test_fault_overrides_gate(self):
        netlist = LogicNetlist()
        netlist.add_input("a")
        netlist.add_gate("y", "not", "a")
        netlist.mark_output("y")
        assert netlist.outputs({"a": True}, faults={"y": True})["y"] is True

    def test_fault_on_primary_input(self):
        netlist = LogicNetlist()
        netlist.add_input("a")
        netlist.add_gate("y", "buf", "a")
        netlist.mark_output("y")
        assert netlist.outputs({"a": False}, faults={"a": True})["y"] is True


class TestArithmeticCells:
    def test_full_subtractor_truth_table(self):
        for a, b, borrow_in in itertools.product([0, 1], repeat=3):
            netlist = LogicNetlist()
            for net in ("a", "b", "bin"):
                netlist.add_input(net)
            diff, bout = build_full_subtractor(netlist, "a", "b", "bin", "fs")
            netlist.mark_output(diff)
            netlist.mark_output(bout)
            out = netlist.outputs(
                {"a": bool(a), "b": bool(b), "bin": bool(borrow_in)}
            )
            raw = a - b - borrow_in
            assert out[diff] == bool(raw & 1)
            assert out[bout] == (raw < 0)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_ripple_subtractor_exhaustive_small(self, bits):
        netlist = build_ripple_subtractor(min(bits, 4))
        n = min(bits, 4)
        for a, b in itertools.product(range(2**n), repeat=2):
            inputs = {"bin0": False}
            for i in range(n):
                inputs[f"a{i}"] = bool((a >> i) & 1)
                inputs[f"b{i}"] = bool((b >> i) & 1)
            out = netlist.outputs(inputs)
            result = sum(out[f"d{i}"] << i for i in range(n))
            assert result == (a - b) % (2**n)
            assert out["borrow"] == (a < b)

    def test_bit_width_validation(self):
        with pytest.raises(ValueError):
            build_ripple_subtractor(0)


class TestMetrics:
    def test_gate_and_transistor_counts(self):
        netlist = build_ripple_subtractor(8)
        assert netlist.gate_count > 8 * 7  # seven gates per full subtractor
        # CMOS: inverter 2T, 2-input gate 4T.
        assert netlist.transistor_count() > 2 * netlist.gate_count
