"""Bench CASCADE: cascaded logic with and without saturation.

"the dynamic behavior of cascaded logic circuits based on FETs without
saturation would be difficult to predict, as there are no defined
logical 'high' and 'low' levels" — a 4-stage inverter chain driven by a
full-swing pulse, simulated with the transient engine.
"""

from conftest import print_rows

from repro.experiments.cascade import run_cascade


def test_cascade_regeneration(benchmark):
    result = benchmark.pedantic(run_cascade, rounds=1, iterations=1)
    print_rows("Cascaded inverter chains — per-stage swing", result.rows())

    # Saturating chain regenerates to the rails at every stage.
    assert all(s > 0.95 * result.vdd for s in result.stage_swings_sat)
    # Non-saturating chain attenuates geometrically: undefined levels.
    assert result.lin_attenuation_per_stage < 0.95
    assert result.stage_swings_lin[-1] / result.vdd < 0.6
