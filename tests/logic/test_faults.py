"""Fault injection and functional yield of the one-bit computer."""

import numpy as np
import pytest

from repro.circuit.resilience import ExecutionPolicy
from repro.integration.sorting import GEL_CHROMATOGRAPHY, passes_to_reach_purity
from repro.integration.yields import GateYieldModel
from repro.logic import faults
from repro.logic.faults import (
    functional_yield,
    machine_with_faults,
    runs_counting_program,
    runs_sorting_program,
    sample_stuck_faults,
)
from repro.logic.gates import build_ripple_subtractor


class TestFaultSampling:
    def test_zero_probability_no_faults(self):
        alu = build_ripple_subtractor(8)
        faults = sample_stuck_faults(alu, 0.0, np.random.default_rng(0))
        assert faults == {}

    def test_certain_failure_faults_everything(self):
        alu = build_ripple_subtractor(4)
        faults = sample_stuck_faults(alu, 1.0, np.random.default_rng(0))
        assert set(faults) == set(alu.gates)

    def test_rate_scales_fault_count(self):
        alu = build_ripple_subtractor(8)
        rng = np.random.default_rng(1)
        few = len(sample_stuck_faults(alu, 0.01, rng))
        many = len(sample_stuck_faults(alu, 0.5, rng))
        assert many > few

    def test_validation(self):
        alu = build_ripple_subtractor(4)
        with pytest.raises(ValueError):
            sample_stuck_faults(alu, 1.5, np.random.default_rng(0))


class TestProgramChecks:
    def test_fault_free_machine_passes_both(self):
        assert runs_counting_program({})
        assert runs_sorting_program({})

    def test_stuck_borrow_breaks_programs(self):
        assert not runs_sorting_program({"borrow": True})

    def test_stuck_data_bit_breaks_counting(self):
        # d0 stuck high: the counter can never reach zero cleanly.
        assert not runs_counting_program({"fs0_d": True})

    def test_machine_with_faults_carries_them(self):
        machine = machine_with_faults(8, {"borrow": True})
        assert machine.faults == {"borrow": True}
        assert machine.use_gate_level


class TestFunctionalYield:
    def test_perfect_gates_full_yield(self):
        model = GateYieldModel(semiconducting_purity=1.0, removal_efficiency=1.0,
                               tube_survival=1.0, tubes_per_gate=10.0)
        result = functional_yield(model, n_trials=20, seed=0)
        assert result.functional_yield == 1.0

    def test_awful_gates_zero_yield(self):
        model = GateYieldModel(
            semiconducting_purity=0.5, removal_efficiency=0.0, tubes_per_gate=10.0
        )
        result = functional_yield(model, n_trials=20, seed=0)
        assert result.functional_yield < 0.2

    def test_yield_monotone_in_purity(self):
        def run(purity):
            model = GateYieldModel(
                semiconducting_purity=purity,
                removal_efficiency=0.9,
                tubes_per_gate=5.0,
            )
            return functional_yield(model, n_trials=60, seed=42).functional_yield

        assert run(0.999) >= run(0.9)

    def test_reports_gate_failure_probability(self):
        model = GateYieldModel(semiconducting_purity=0.99, removal_efficiency=0.9)
        result = functional_yield(model, n_trials=5, seed=1)
        assert result.gate_failure_probability == pytest.approx(
            1.0 - model.gate_yield
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            functional_yield(GateYieldModel(), n_trials=0)


class TestFunctionalYieldDeterminism:
    """Engine satellite: execution shape never changes the yield estimate."""

    def test_chunking_and_pool_match_serial(self):
        model = GateYieldModel(
            semiconducting_purity=0.99, removal_efficiency=0.9, tubes_per_gate=5.0
        )
        serial = functional_yield(model, n_trials=48, seed=7)
        chunked = functional_yield(
            model, n_trials=48, seed=7, policy=ExecutionPolicy(chunk_size=32)
        )
        pooled = functional_yield(
            model, n_trials=48, seed=7, policy=ExecutionPolicy(workers=2)
        )
        assert serial == chunked == pooled


class TestFunctionalYieldFaultPath:
    """The program runners, at the integration pipeline's own gate model.

    There p_fail is ~7.5e-5, so the CLI's 30 trials and the default 120
    draw no fault and never run a program; 64 trials at seed 7 do.
    """

    def test_fault_draw_runs_the_programs_pooled_or_not(self, monkeypatch):
        sorting = passes_to_reach_purity(GEL_CHROMATOGRAPHY, target_purity=0.9999)
        model = GateYieldModel(
            semiconducting_purity=sorting.purity,
            tubes_per_gate=10.0,
            removal_efficiency=0.999,
        )
        reached = []

        def counting(fault_map, *args):
            reached.append(fault_map)
            return runs_counting_program(fault_map, *args)

        with monkeypatch.context() as patch:
            patch.setattr(faults, "runs_counting_program", counting)
            serial = functional_yield(model, n_trials=64, seed=7)
        assert reached and all(reached)
        pooled = functional_yield(
            model, n_trials=64, seed=7, policy=ExecutionPolicy(workers=2)
        )
        assert pooled.n_functional == serial.n_functional
