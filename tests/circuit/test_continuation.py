"""Cold-start DC convergence: the adaptive continuation subsystem.

Regression suite for the solver's historical divergence on long FET
chains: before the continuation ladder, plain Newton and both fixed
homotopy schedules failed beyond ~4 inverter stages and every caller
had to hand-feed a structural ``x0`` guess.  These tests solve 8- and
16-stage chains and a 3-stage ring oscillator from a true cold start —
no ``x0`` anywhere.
"""

import numpy as np
import pytest

from repro.circuit.continuation import (
    ConvergenceError,
    solve_dc_robust,
    structural_seed,
)
from repro.circuit.dc import operating_point
from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.solver import newton_solve, solve_dc
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from ring_oscillator import build_ring_oscillator


class TestColdStartChains:
    @pytest.mark.parametrize("n_stages", [8, 16])
    def test_chain_cold_start(self, n_stages):
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=n_stages)
        system = circuit.build_system()
        x = solve_dc(system)  # no x0: this used to raise beyond 4 stages
        residual, _ = system.evaluate(x)
        assert float(np.max(np.abs(residual))) < 1e-9
        # Alternating rails: stage i inverts stage i-1, input held low.
        for i in range(n_stages + 1):
            expected = float(i % 2)
            assert system.voltage_of(x, f"s{i}") == pytest.approx(expected, abs=1e-2)

    @pytest.mark.parametrize("n_stages", [8, 16])
    def test_chain_from_zeros_uses_adaptive_ladder(self, n_stages):
        # Bypass the structural seeder: the adaptive gmin ladder itself
        # must get through where the old fixed schedule aborted.
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=n_stages)
        system = circuit.build_system()
        x, report = solve_dc_robust(system, np.zeros(system.size))
        assert report.converged
        assert report.strategy != "newton"  # plain Newton can't do this
        assert system.voltage_of(x, f"s{n_stages}") == pytest.approx(
            float(n_stages % 2), abs=1e-2
        )

    def test_chain_transient_cold_start(self):
        # End-to-end: the benchmark scenario, with the x0 seed removed.
        stimulus = Pulse(0.0, 1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
                         width_s=2e-10, period_s=4e-10)
        circuit = build_inverter_chain(
            AlphaPowerFET(), n_stages=8, input_waveform=stimulus
        )
        result = transient(circuit, 4e-10, 2e-12)
        swing = result.voltage("s8")
        assert swing.max() > 0.9 and swing.min() < 0.1

    def test_ring_oscillator_cold_start(self):
        circuit = build_ring_oscillator(AlphaPowerFET(), n_stages=3)
        system = circuit.build_system()
        x = solve_dc(system)
        residual, _ = system.evaluate(x)
        assert float(np.max(np.abs(residual))) < 1e-9
        # Odd ring: the only DC solution sits near the metastable
        # mid-rail point of every stage.
        for i in range(3):
            assert 0.3 < system.voltage_of(x, f"n{i}") < 0.7


class TestStructuralSeed:
    def test_chain_seed_reconstructs_rails(self):
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=8)
        system = circuit.build_system()
        seed = structural_seed(system)
        assert system.voltage_of(seed, "vdd") == pytest.approx(1.0)
        for i in range(9):
            assert system.voltage_of(seed, f"s{i}") == pytest.approx(float(i % 2))

    def test_seed_respects_waveform_time(self):
        circuit = build_inverter_chain(
            AlphaPowerFET(),
            n_stages=2,
            input_waveform=Pulse(0.0, 1.0, delay_s=0.0, rise_s=1e-12,
                                 fall_s=1e-12, width_s=1e-9),
        )
        system = circuit.build_system()
        high = structural_seed(system, time_s=0.5e-9)  # input pulsed high
        assert system.voltage_of(high, "s0") == pytest.approx(1.0)
        assert system.voltage_of(high, "s1") == pytest.approx(0.0)

    def test_source_pinning_beats_resistor_propagation(self):
        # V2's terminals only become known via resistor propagation; the
        # exact source rule must still pin b = a + 0.5, not let the
        # resistor wire heuristic drag b to ground first.
        c = Circuit()
        c.add_voltage_source("V1", "vdd", "0", DC(1.0))
        c.add_resistor("R1", "vdd", "a", 1e3)
        c.add_voltage_source("V2", "b", "a", DC(0.5))
        c.add_resistor("RB", "b", "0", 1e6)
        system = c.build_system()
        seed = structural_seed(system)
        assert system.voltage_of(seed, "a") == pytest.approx(1.0)
        assert system.voltage_of(seed, "b") == pytest.approx(1.5)

    def test_unreachable_nodes_settle_mid_rail(self):
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        fet = AlphaPowerFET()
        # Gate driven at mid-supply through nothing the seeder can see.
        c.add_fet("M1", "out", "float", "0", fet)
        c.add_resistor("RL", "vdd", "out", 1e5)
        system = c.build_system()
        seed = structural_seed(system)
        assert system.voltage_of(seed, "float") == pytest.approx(0.5)


class TestConvergenceReport:
    def test_happy_path_report(self):
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=8)
        system = circuit.build_system()
        x, report = solve_dc_robust(system)
        assert report.converged
        assert report.strategy == "newton"
        assert report.total_iterations >= 1
        assert report.final_residual < 1e-9
        assert "converged via newton" in report.describe()

    def test_exhausted_ladder_raises_with_report(self):
        # A current source into a floating FET gate: no DC path to
        # ground, so the matrix is singular at gmin = 0 and every
        # strategy must fail at its final homotopy-free solve.
        c = Circuit()
        c.add_current_source("I1", "0", "g", DC(1e-6))
        c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
        c.add_resistor("RD", "d", "0", 1e4)
        system = c.build_system()
        with pytest.raises(CircuitError) as excinfo:
            solve_dc(system)
        assert isinstance(excinfo.value, ConvergenceError)
        report = excinfo.value.report
        assert not report.converged
        assert set(report.stages_used) >= {"newton", "gmin", "source", "ptc"}
        assert "FAILED" in str(excinfo.value)

    def test_report_carries_full_ladder_history(self):
        """ConvergenceError.report records every rung, not just the last.

        The continuation rescue paths (transient step rescue, the sweep
        engines' per-instance fallbacks) rely on this history for
        diagnosis: each attempt carries its stage, homotopy parameter,
        iteration count and final residual, in execution order.
        """
        c = Circuit()
        c.add_current_source("I1", "0", "g", DC(1e-6))
        c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
        c.add_resistor("RD", "d", "0", 1e4)
        system = c.build_system()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(system)
        report = excinfo.value.report

        # Every strategy the ladder walked left multiple recorded rungs.
        assert len(report.attempts) > len(report.stages_used)
        assert report.total_iterations == sum(
            a.iterations for a in report.attempts
        )
        # Stages appear in ladder order, and homotopy stages record the
        # continuation parameter of each rung.
        assert report.stages_used[0] == "newton"
        for attempt in report.attempts:
            assert attempt.stage in {"newton", "gmin", "source", "ptc"}
            assert np.isfinite(attempt.residual) or attempt.residual == np.inf
            if attempt.stage in {"gmin", "source", "ptc"}:
                assert attempt.parameter is not None
        gmin_params = [
            a.parameter for a in report.attempts if a.stage == "gmin"
        ]
        assert len(set(gmin_params)) > 1  # the ladder actually stepped
        # describe() names each stage with its attempt counts.
        text = report.describe()
        for stage in report.stages_used:
            assert stage in text
        assert "last parameter" in text


class TestUnifiedConvergenceCriterion:
    def test_stall_below_tolerance_is_not_converged(self):
        # The singular floating-gate system: Newton can't even step.
        c = Circuit()
        c.add_current_source("I1", "0", "g", DC(1e-6))
        c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
        c.add_resistor("RD", "d", "0", 1e4)
        system = c.build_system()
        _, converged = newton_solve(system, np.zeros(system.size))
        assert not converged

    def test_converged_means_residual_tolerance(self):
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=4)
        system = circuit.build_system()
        x, converged = newton_solve(system, structural_seed(system))
        assert converged
        residual, _ = system.evaluate(x)
        assert float(np.max(np.abs(residual))) < 1e-9


class TestLinearPrefactorization:
    """Linear circuits take the one Newton path (no cached factorization)."""

    def test_linear_only_flag(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        system = c.build_system()
        x = solve_dc(system)
        assert system.voltage_of(x, "b") == pytest.approx(0.5)

    def test_fet_circuit_is_not_linear_only(self):
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=1)
        assert circuit.build_system()._plan.fet_groups

    def test_operating_point_no_x0_needed_anywhere(self):
        # The public entry points solve the 16-stage chain cold.
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=16)
        op = operating_point(circuit)
        assert op.voltage("s16") == pytest.approx(0.0, abs=1e-2)
