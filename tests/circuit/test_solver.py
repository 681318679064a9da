"""Newton solver robustness: KCL residuals, homotopies, hard starts."""

import numpy as np
import pytest

from repro.circuit.assembly import SPARSE_THRESHOLD
from repro.circuit.netlist import Circuit
from repro.circuit.solver import newton_many, newton_solve, solve_dc
from repro.circuit.sweep import FETVariation
from repro.circuit.waveforms import DC
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET
from scalar_oracle import sequential_newton


def inverter_circuit(vin=0.5):
    c = Circuit()
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "in", "0", DC(vin))
    fet = AlphaPowerFET()
    c.add_fet("MP", "out", "in", "vdd", PType(fet))
    c.add_fet("MN", "out", "in", "0", fet)
    return c


class TestNewton:
    def test_linear_circuit_one_step(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_resistor("R2", "b", "0", 1e3)
        system = c.build_system()
        x, converged = newton_solve(system, np.zeros(system.size))
        assert converged
        residual, _ = system.evaluate(x)
        assert np.max(np.abs(residual)) < 1e-10

    def test_kcl_residual_at_solution(self):
        system = inverter_circuit(0.5).build_system()
        x = solve_dc(system)
        residual, _ = system.evaluate(x)
        assert np.max(np.abs(residual)) < 1e-9

    def test_cold_start_mid_transition(self):
        # Both FETs half-on: the classic hard DC point.
        system = inverter_circuit(0.5).build_system()
        x = solve_dc(system)
        out = x[system.node_index("out")]
        assert 0.3 < out < 0.7  # symmetric pair -> mid-rail output

    def test_rails_solve(self):
        for vin, expected in [(0.0, 1.0), (1.0, 0.0)]:
            system = inverter_circuit(vin).build_system()
            x = solve_dc(system)
            assert x[system.node_index("out")] == pytest.approx(expected, abs=1e-2)

    def test_gmin_kwarg_adds_leak(self):
        c = Circuit()
        c.add_current_source("I1", "0", "x", DC(1e-6))
        c.add_resistor("R1", "x", "0", 1e6)
        system = c.build_system()
        x_leaky, ok = newton_solve(system, np.zeros(system.size), gmin=1e-6)
        assert ok
        # 1 uA into 1 MOhm || 1 MOhm (gmin) = 0.5 V.
        assert x_leaky[system.node_index("x")] == pytest.approx(0.5, rel=1e-6)


class TestNonFiniteStart:
    """A row whose starting residual is not finite never converges."""

    def _chain(self):
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VIN", "s0", "0", DC(0.2))
        fet = AlphaPowerFET()
        for i in range(2):
            c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(fet))
            c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", fet)
        return c

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_row_leaves_unconverged(self, value):
        system = self._chain().build_system()
        x_nominal = solve_dc(system)
        variation = FETVariation.nominal(2, 4)
        variation.drive_scale[1, 0] = value
        rows = newton_many(
            system._plan, np.stack([x_nominal, x_nominal]), variation=variation
        )
        assert rows.converged.tolist() == [True, False]
        assert rows.iterations[1] == 0
        assert not np.isfinite(rows.norm[1])
        np.testing.assert_array_equal(rows.x[1], x_nominal)


class TestBatchedLineSearch:
    """The damping ladder of a rejected full step runs through the kernel.

    Each backtracking round evaluates one halving candidate per pending
    row in one :meth:`~repro.circuit.assembly.StampPlan.evaluate_many`
    call, dense and sparse plans alike; acceptance must be the first
    candidate a sequential ladder would have accepted, so the solver
    lands on the oracle's solution.
    """

    def _chain(self, n_stages=5):
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VIN", "s0", "0", DC(0.0))
        fet = AlphaPowerFET()
        for i in range(n_stages):
            c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(fet))
            c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", fet)
        return c

    def _adversarial_start(self, system):
        # Rails inverted: forces damped steps.
        x0 = np.full(system.size, 0.5)
        x0[system.node_index("vdd")] = -1.0
        return x0

    def _count_batched_calls(self, monkeypatch, plan):
        calls = {"many": 0}
        original = plan.evaluate_many

        def counting(x_stack, **kwargs):
            calls["many"] += 1
            return original(x_stack, **kwargs)

        monkeypatch.setattr(plan, "evaluate_many", counting)
        return calls

    def test_backtracking_routes_through_evaluate_many(self, monkeypatch):
        system = self._chain().build_system()
        calls = self._count_batched_calls(monkeypatch, system._plan)
        x, converged = newton_solve(system, self._adversarial_start(system))
        residual, _ = system.evaluate_dense(x)
        assert calls["many"] > 0
        assert np.max(np.abs(residual)) < 1e-8 or not converged

    def test_batched_ladder_matches_sequential_ladder(self):
        system = self._chain().build_system()
        x0 = self._adversarial_start(system)
        x_batched, ok_batched = newton_solve(system, x0)
        x_oracle, ok_oracle = sequential_newton(system, x0)
        assert ok_batched == ok_oracle
        np.testing.assert_allclose(x_batched, x_oracle, atol=1e-7)

    def test_sparse_plan_ladder_runs_batched(self, monkeypatch):
        # The 5-stage chain plus a 126-resistor string across the supply:
        # 134 unknowns, so the plan assembles sparse.
        circuit = self._chain()
        previous = "vdd"
        for i in range(125):
            circuit.add_resistor(f"RS{i}", previous, f"r{i}", 1e4)
            previous = f"r{i}"
        circuit.add_resistor("RS125", previous, "0", 1e4)
        system = circuit.build_system()
        assert system.size >= SPARSE_THRESHOLD and system._plan.use_sparse
        calls = self._count_batched_calls(monkeypatch, system._plan)
        x0 = self._adversarial_start(system)
        x_batched, ok_batched = newton_solve(system, x0)
        assert calls["many"] > 0
        x_oracle, ok_oracle = sequential_newton(system, x0)
        assert ok_batched and ok_oracle
        np.testing.assert_allclose(x_batched, x_oracle, atol=1e-7)


class TestStiffCircuits:
    def test_wide_conductance_spread(self):
        # 9 decades of resistance spread in one circuit.
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_resistor("R1", "a", "b", 1.0)
        c.add_resistor("R2", "b", "c", 1e9)
        c.add_resistor("R3", "c", "0", 1.0)
        system = c.build_system()
        x = solve_dc(system)
        assert x[system.node_index("b")] == pytest.approx(1.0, abs=1e-6)
        assert x[system.node_index("c")] == pytest.approx(0.0, abs=1e-6)

    def test_series_fet_stack(self):
        # Two stacked FETs (NAND-style pulldown) with a resistive load.
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VA", "a", "0", DC(1.0))
        c.add_voltage_source("VB", "b", "0", DC(1.0))
        c.add_resistor("RL", "vdd", "out", 50e3)
        fet = AlphaPowerFET()
        c.add_fet("M1", "out", "a", "mid", fet)
        c.add_fet("M2", "mid", "b", "0", fet)
        system = c.build_system()
        x = solve_dc(system)
        out = x[system.node_index("out")]
        mid = x[system.node_index("mid")]
        assert 0.0 <= mid <= out <= 1.0
        assert out < 0.3  # both gates high: output pulled low
