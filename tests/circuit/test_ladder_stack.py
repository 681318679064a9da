"""The stacked continuation ladder against its one-row call and oracle.

:func:`~repro.circuit.continuation.ladder_many` walks every row of a
stack through plain Newton and then pseudo-transient continuation
(PTC), one ``newton_many`` call per round over the rows still walking.
Row ``i`` must take exactly the attempts the one-row call
(:func:`~repro.circuit.continuation.solve_dc_robust`) takes on it: the
same ``x`` bitwise and the same attempt history.  The Monte Carlo
engines rescue their stragglers through it, so an instance the scalar
oracle converges converges in the engine too.
"""

import numpy as np
import pytest

from repro.circuit.continuation import ladder_many, solve_dc_robust
from repro.circuit.sweep import CircuitMonteCarlo, FETVariation
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from scalar_oracle import dc_scalar_reference

# A hard spread: about three quarters of the instances fail plain Newton
# from the nominal solution.
SPREAD = dict(seed=11, drive_sigma=0.5, vth_sigma_v=0.1)


def _chain_engine(input_v: float) -> CircuitMonteCarlo:
    chain = build_inverter_chain(AlphaPowerFET(), n_stages=5, input_waveform=DC(input_v))
    return CircuitMonteCarlo(chain)


def _spread(engine, rows) -> FETVariation:
    return FETVariation.sample(256, len(engine.fet_names), **SPREAD).take(rows)


def _assert_rows_match_one_row_calls(system, rows, x0, variation, **eval_kwargs):
    """Row ``k`` of ``rows`` is bitwise ``solve_dc_robust`` on row ``k``."""
    for k in range(x0.shape[0]):
        row_kwargs = {
            key: value[k] if isinstance(value, np.ndarray) else value
            for key, value in eval_kwargs.items()
        }
        x, report = solve_dc_robust(
            system, x0[k], variation=variation.take([k]), **row_kwargs
        )
        stacked = rows.report(k)
        assert np.array_equal(rows.x[k], x), k
        assert stacked.attempts == report.attempts, k
        assert (stacked.converged, stacked.strategy) == (report.converged, report.strategy)
        assert rows.converged[k] == report.converged
        assert rows.entered[k] == (not report.attempts[0].converged)


def test_stacked_rows_take_the_one_row_attempts():
    # One row converges on plain Newton; the other three walk PTC on
    # their own alpha, mixed in each round's one newton_many call.
    engine = _chain_engine(0.5)
    variation = _spread(engine, [0, 5, 43, 146])
    x0 = np.tile(engine.nominal_solution(), (4, 1))
    rows = ladder_many(engine.plan, x0, variation=variation)
    strategies = [rows.report(k).strategy for k in range(4)]
    assert strategies == ["newton", "ptc", "ptc", "ptc"]
    assert rows.converged.all()
    assert rows.entered.tolist() == [False, True, True, True]
    assert set(rows.reports) == {1, 2, 3}  # plain-Newton rows carry no report
    _assert_rows_match_one_row_calls(engine.system, rows, x0, variation)


def test_stacked_transient_step_rows_take_the_one_row_attempts():
    # A transient step context: per-row previous solutions and
    # companion state, narrowed with the walking rows each round.  The
    # step is long against the loads, so the step rows fail plain
    # Newton like the DC rows do; row 0 converges without the ladder.
    engine = _chain_engine(0.5)
    plan = engine.plan
    variation = _spread(engine, [0, 5, 7, 8])
    x0 = np.tile(engine.nominal_solution(), (4, 1))
    rng = np.random.default_rng(0)
    previous_x = x0 + rng.normal(0.0, 1e-3, x0.shape)
    state = rng.normal(0.0, 1e-9, (4, len(plan.cap_names)))
    context = dict(time_s=1e-6, dt_s=1e-6, integrator="trapezoidal")
    rows = ladder_many(
        plan, x0, variation=variation, previous_x=previous_x, state=state, **context
    )
    assert rows.entered.tolist() == [False, True, True, True]
    assert rows.converged.all()
    _assert_rows_match_one_row_calls(
        engine.system, rows, x0, variation,
        previous_x=previous_x, state=state, **context,
    )


def test_engine_converges_every_instance_its_oracle_converges():
    # Instance 67 of the hard spread at DC(0.45) defeated the engines'
    # old fixed rescue schedule, though the scalar ladder converges it.
    engine = _chain_engine(0.45)
    variation = _spread(engine, [67, 2, 5])
    result = engine.run(variation)
    oracle = dc_scalar_reference(engine, variation)
    assert oracle.converged.all()
    assert result.converged.all()
    for node in ("s1", "s3", "s5"):
        assert result.voltage(node) == pytest.approx(oracle.voltage(node), abs=1e-6)
