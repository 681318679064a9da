"""Circuit yield: metallic shorts, VMR removal, the Shulaker scenario."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from gate_yield_oracle import monte_carlo_gate_yield
from repro.circuit.resilience import ExecutionPolicy
from repro.integration.yields import (
    GateYieldModel,
    SHULAKER_TRANSISTOR_COUNT,
    circuit_yield,
    purity_required_for_yield,
    shulaker_computer_yield,
)


class TestGateYieldModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateYieldModel(semiconducting_purity=1.5)
        with pytest.raises(ValueError):
            GateYieldModel(tubes_per_gate=0.0)

    def test_perfect_purity_no_shorts(self):
        model = GateYieldModel(semiconducting_purity=1.0, removal_efficiency=0.0)
        assert model.p_short == 0.0

    def test_perfect_removal_no_shorts(self):
        model = GateYieldModel(semiconducting_purity=0.5, removal_efficiency=1.0)
        assert model.p_short == 0.0

    def test_short_probability_formula(self):
        model = GateYieldModel(
            semiconducting_purity=0.9, tubes_per_gate=5.0, removal_efficiency=0.0
        )
        assert model.p_short == pytest.approx(1.0 - math.exp(-0.5))

    def test_open_probability(self):
        model = GateYieldModel(
            semiconducting_purity=0.99, tubes_per_gate=5.0, tube_survival=1.0
        )
        assert model.p_open == pytest.approx(math.exp(-4.95))

    def test_gate_yield_composition(self):
        model = GateYieldModel()
        assert model.gate_yield == pytest.approx(
            (1.0 - model.p_short) * (1.0 - model.p_open)
        )

    @given(st.floats(0.5, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40)
    def test_probabilities_bounded(self, purity, removal):
        model = GateYieldModel(
            semiconducting_purity=purity, removal_efficiency=removal
        )
        assert 0.0 <= model.p_short <= 1.0
        assert 0.0 <= model.p_open <= 1.0
        assert 0.0 <= model.gate_yield <= 1.0


class TestCircuitYield:
    def test_yield_decays_with_gate_count(self):
        model = GateYieldModel(semiconducting_purity=0.999, removal_efficiency=0.0)
        small = circuit_yield(model, 10).circuit_yield
        large = circuit_yield(model, 1000).circuit_yield
        assert large < small

    def test_redundancy_helps(self):
        model = GateYieldModel(semiconducting_purity=0.99, removal_efficiency=0.0)
        plain = circuit_yield(model, 178).circuit_yield
        spared = circuit_yield(model, 178, redundancy=3).circuit_yield
        assert spared > plain

    def test_expected_failures(self):
        model = GateYieldModel(semiconducting_purity=0.999, removal_efficiency=0.0)
        result = circuit_yield(model, 100)
        assert result.expected_failures == pytest.approx(
            100 * (1.0 - result.gate_yield)
        )

    def test_validation(self):
        model = GateYieldModel()
        with pytest.raises(ValueError):
            circuit_yield(model, 0)
        with pytest.raises(ValueError):
            circuit_yield(model, 10, redundancy=0)


class TestShulakerScenario:
    def test_transistor_count(self):
        assert SHULAKER_TRANSISTOR_COUNT == 178

    def test_raw_growth_purity_hopeless_without_removal(self):
        # 2/3 semiconducting, no metallic removal: yield ~ 0.
        result = shulaker_computer_yield(2.0 / 3.0, removal_efficiency=0.0)
        assert result.circuit_yield < 1e-6

    def test_removal_rescues_raw_material(self):
        # The imperfection-immune flow: VMR makes 2/3 purity workable.
        result = shulaker_computer_yield(2.0 / 3.0, removal_efficiency=0.9999)
        assert result.circuit_yield > 0.5

    def test_sorted_material_with_removal_high_yield(self):
        result = shulaker_computer_yield(0.9999, removal_efficiency=0.999)
        assert result.circuit_yield > 0.9

    def test_monotone_in_purity(self):
        yields = [
            shulaker_computer_yield(p, removal_efficiency=0.99).circuit_yield
            for p in (0.9, 0.99, 0.999, 0.9999)
        ]
        assert all(a < b for a, b in zip(yields, yields[1:]))


class TestPurityRequirement:
    def test_inverts_yield_formula(self):
        purity = purity_required_for_yield(0.5, n_gates=178, tubes_per_gate=5.0)
        model = GateYieldModel(
            semiconducting_purity=purity,
            tubes_per_gate=5.0,
            removal_efficiency=0.0,
            tube_survival=1.0,
        )
        # Shorts-only yield should land on the target.
        shorts_only = (1.0 - model.p_short) ** 178
        assert shorts_only == pytest.approx(0.5, rel=0.01)

    def test_vlsi_scale_needs_many_nines(self):
        # A million-gate circuit: purity must exceed six nines without
        # removal — the paper's "hard work" in numbers.
        purity = purity_required_for_yield(0.5, n_gates=1_000_000, tubes_per_gate=5.0)
        assert purity > 1.0 - 1e-6

    def test_removal_relaxes_requirement(self):
        strict = purity_required_for_yield(0.5, 178, removal_efficiency=0.0)
        relaxed = purity_required_for_yield(0.5, 178, removal_efficiency=0.99)
        assert relaxed < strict

    def test_validation(self):
        with pytest.raises(ValueError):
            purity_required_for_yield(1.5, 100)
        with pytest.raises(ValueError):
            purity_required_for_yield(0.5, 0)


class TestMonteCarloGateYield:
    """Sampled gate fabrication converges on the analytic thinning model."""

    @pytest.fixture(scope="class")
    def model(self):
        return GateYieldModel(
            semiconducting_purity=0.99, tubes_per_gate=5.0,
            removal_efficiency=0.9, tube_survival=0.95,
        )

    @pytest.fixture(scope="class")
    def sampled(self, model):
        return monte_carlo_gate_yield(model, n_gates=20000, seed=3)

    def test_matches_analytic_probabilities(self, model, sampled):
        assert sampled.p_short == pytest.approx(model.p_short, abs=0.005)
        assert sampled.p_open == pytest.approx(model.p_open, abs=0.005)
        assert sampled.gate_yield == pytest.approx(model.gate_yield, abs=0.01)

    def test_counts_are_consistent(self, sampled):
        assert sampled.n_functional <= sampled.n_gates
        assert sampled.n_functional >= sampled.n_gates - sampled.n_shorted - sampled.n_open

    def test_execution_shape_invariance(self, model, sampled):
        chunked = monte_carlo_gate_yield(
            model, n_gates=20000, seed=3, policy=ExecutionPolicy(chunk_size=777)
        )
        pooled = monte_carlo_gate_yield(
            model, n_gates=20000, seed=3, policy=ExecutionPolicy(workers=2)
        )
        assert chunked == sampled
        assert pooled == sampled

    def test_validation(self, model):
        with pytest.raises(ValueError):
            monte_carlo_gate_yield(model, n_gates=0)
