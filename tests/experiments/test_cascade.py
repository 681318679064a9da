"""Cascaded-chain experiment: regeneration vs geometric level collapse."""

import pytest

from repro.circuit.netlist import Circuit
from repro.experiments.cascade import build_inverter_chain, run_cascade
from repro.experiments.fig2 import saturating_fet


@pytest.fixture(scope="module")
def result():
    return run_cascade(n_stages=3)


class TestChainBuilder:
    def test_stage_count_validation(self):
        with pytest.raises(ValueError):
            build_inverter_chain(saturating_fet(), n_stages=0)

    def test_nodes_created(self):
        chain = build_inverter_chain(saturating_fet(), n_stages=3)
        assert isinstance(chain, Circuit)
        for stage in range(4):
            assert f"s{stage}" in chain.node_names or stage == 0


class TestCascadeBehaviour:
    def test_saturating_chain_regenerates(self, result):
        assert all(s > 0.95 * result.vdd for s in result.stage_swings_sat)

    def test_non_saturating_chain_attenuates_monotonically(self, result):
        swings = result.stage_swings_lin
        assert all(a > b for a, b in zip(swings, swings[1:]))

    def test_attenuation_is_sub_unity(self, result):
        assert result.lin_attenuation_per_stage < 1.0

    def test_final_levels(self, result):
        assert result.stage_swings_sat[-1] / result.vdd > 0.95
        assert result.stage_swings_lin[-1] / result.vdd < 0.8

    def test_rows_cover_both_chains(self, result):
        rows = result.rows()
        labels = [label for label, _ in rows]
        assert any("saturating: stage 1" in l for l in labels)
        assert any("non-saturating: stage 3" in l for l in labels)
