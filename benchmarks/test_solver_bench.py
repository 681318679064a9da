"""Bench SOLVER: MNA assembly/Newton throughput on inverter chains.

The perf baseline for the compiled stamp-plan assembly engine
(:mod:`repro.circuit.assembly`): ``evaluate()`` throughput in a DC and
a transient (capacitor companion) context and full Newton-solve
wall-clock on 1/5/20-stage complementary inverter chains, plus a
200-step trapezoidal transient of the 20-stage chain.  Future solver
changes should quote before/after numbers from this file.

Seed-implementation reference numbers: Newton ~0.72 ms and 200-step
transient ~0.218 s on the 20-stage chain; the compiled engine landed at
~0.13 ms / ~0.041 s.  ``evaluate()`` is the one-row call of the one
stamp kernel, ``StampPlan.evaluate_many``, and returns fresh arrays.
On a 2-vCPU VM (both versions loaded in one process, alternating timed
batches, best of 21), 1/5/20 stages: DC 14.9/49.1/51.0 us and
transient 23.4/57.7/63.1 us through the former scalar
``StampPlan.evaluate``, which returned reused buffers; DC
18.5/51.8/54.6 us and transient 29.6/63.7/67.5 us as the one-row call.
The Newton and time-step loops call ``evaluate_many`` directly.
"""

import numpy as np
import pytest

from conftest import print_rows

from repro.circuit.solver import newton_solve
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain

CHAIN_SIZES = (1, 5, 20)
T_STOP_S = 4e-10
DT_S = 2e-12


def _input_pulse():
    return Pulse(0.0, 1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
                 width_s=2e-10, period_s=4e-10)


def _chain(n_stages):
    return build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=_input_pulse()
    )


def _rails_guess(system, n_stages):
    guess = np.zeros(system.size)
    for i in range(n_stages + 1):
        guess[system.node_index(f"s{i}")] = float(i % 2)
    guess[system.node_index("vdd")] = 1.0
    return guess


# The DC cases keep their bare stage-count ids; the transient ones time
# the one-row capacitor companion path (history vector and currents).
EVALUATE_CASES = [pytest.param(n, "dc", id=str(n)) for n in CHAIN_SIZES] + [
    pytest.param(n, "transient", id=f"{n}-transient") for n in CHAIN_SIZES
]


@pytest.mark.parametrize(("n_stages", "context"), EVALUATE_CASES)
def test_evaluate_throughput(benchmark, n_stages, context):
    system = _chain(n_stages).build_system()
    x, converged = newton_solve(system, _rails_guess(system, n_stages))
    assert converged
    kwargs = {}
    if context == "transient":
        # At the DC point with zero history currents the companion
        # stamps cancel, so the residual stays at the DC solution's.
        caps = system._plan.cap_names
        kwargs = dict(
            time_s=0.0, dt_s=DT_S, previous_x=x, integrator="trapezoidal",
            state=dict.fromkeys(caps, 0.0),
        )

    residual, _ = benchmark(system.evaluate, x, **kwargs)
    print_rows(
        f"evaluate() throughput — {n_stages}-stage chain, {context}",
        [("unknowns", float(system.size)),
         ("mean evaluate [us]", benchmark.stats.stats.mean * 1e6)],
    )
    assert float(np.max(np.abs(residual))) < 1e-9


@pytest.mark.parametrize("n_stages", CHAIN_SIZES)
def test_newton_solve_wall_clock(benchmark, n_stages):
    system = _chain(n_stages).build_system()
    guess = _rails_guess(system, n_stages)

    x, converged = benchmark(newton_solve, system, guess)
    print_rows(
        f"newton_solve wall-clock — {n_stages}-stage chain",
        [("mean solve [ms]", benchmark.stats.stats.mean * 1e3)],
    )
    assert converged
    residual, _ = system.evaluate(x)
    assert float(np.max(np.abs(residual))) < 1e-9


def test_chain20_transient_wall_clock(benchmark):
    circuit = _chain(20)

    result = benchmark.pedantic(
        transient, args=(circuit, T_STOP_S, DT_S), rounds=3, iterations=1,
    )
    print_rows(
        "20-stage chain transient (200 steps)",
        [("points", float(result.time_s.size)),
         ("mean run [ms]", benchmark.stats.stats.mean * 1e3)],
    )
    # The pulse has propagated: the final stage swings across the supply.
    swing = result.voltage("s20")
    assert swing.max() > 0.9 and swing.min() < 0.1
