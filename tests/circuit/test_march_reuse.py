"""The time-step loop reuses each step's start-point device outputs, bitwise.

:func:`~repro.circuit.transient.march` hands the device outputs ``(id,
gm, gds)`` that one step's Newton ended with to the next step's first
evaluation, which stamps them instead of calling the device.  These
tests hold its samples bitwise to :func:`reference_march`, a step loop
that calls ``newton_many`` without carried outputs (so every
evaluation linearizes), and count the device calls the reuse saves.
"""

import importlib

import numpy as np
import pytest

from repro.circuit.assembly import StampPlan
from repro.circuit.continuation import ladder_many, structural_seed
from repro.circuit.solver import newton_many, take_rows
from repro.circuit.sweep import FETVariation
from repro.circuit.transient import march
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET
from repro.experiments.cascade import build_inverter_chain, physical_saturating_fet

# The package re-exports the ``transient`` function under the module's name.
transient_module = importlib.import_module("repro.circuit.transient")

T_STOP = 0.3e-9
DT = 1e-11
N_STEPS = 30
RESCUE_STEP = 5  # inside the input's rising edge (steps 3-6), so every row moves

DEVICES = {
    "alpha_power": AlphaPowerFET,
    # Not mirror-symmetric: a p-FET's mirrored biases differ from an n-FET's.
    "non_saturating": NonSaturatingFET,
    "surrogate": physical_saturating_fet,
}


def _chain(device):
    """Two complementary inverters (``PType`` p-FETs) driven by one pulse."""
    pulse = Pulse(
        v1=0.0, v2=1.0, delay_s=0.1 * T_STOP, rise_s=0.1 * T_STOP,
        fall_s=0.1 * T_STOP, width_s=0.4 * T_STOP, period_s=0.0,
    )
    return build_inverter_chain(device, n_stages=2, input_waveform=pulse)


def _start(plan, system, variation):
    """The t=0 solutions of every variation row, as the Monte Carlo engine solves them."""
    seed = structural_seed(system, time_s=0.0)
    rows = ladder_many(
        plan, np.tile(seed, (variation.n_instances, 1)),
        variation=variation, time_s=0.0,
    )
    assert rows.converged.all()
    return rows.x


def reference_march(plan, x0, n_steps, dt_s, integrator, variation, newton):
    """The step loop with no carried outputs: each step linearizes its start point.

    Same steps as :func:`~repro.circuit.transient.march` otherwise:
    Newton from the previous solutions, the ladder for the rows that
    fail, and the companion-state update at the accepted solutions.
    """
    m, size = x0.shape
    samples = np.full((m, n_steps + 1, size), np.nan)
    samples[:, 0] = x0
    alive = np.arange(m)
    x, previous = x0, x0
    state = np.zeros((m, len(plan.cap_names)))
    for step in range(1, n_steps + 1):
        if not alive.size:
            break
        context = {"time_s": step * dt_s, "dt_s": dt_s, "integrator": integrator}
        kwargs = {
            "variation": variation.take(alive),
            "previous_x": previous,
            "state": state,
        }
        rows = newton(plan, x, **kwargs, **context)
        x, converged = rows.x, rows.converged
        failed = np.flatnonzero(~converged)
        if failed.size:
            ladder = ladder_many(
                plan, previous[failed], **take_rows(kwargs, failed), **context
            )
            x[failed], converged[failed] = ladder.x, ladder.converged
            alive, x = alive[converged], x[converged]
            previous, state = previous[converged], state[converged]
        if integrator == "trapezoidal" and state.shape[1]:
            pad = np.zeros((x.shape[0], 1))
            state = plan.cap_state_update(
                np.hstack((x, pad)), np.hstack((previous, pad)), dt_s, integrator, state
            )
        samples[alive, step] = x
        previous = x
    return samples


def _rescuing(row):
    """A ``newton_many`` whose live row ``row`` gives up at its start point.

    At ``RESCUE_STEP`` that row leaves unconverged at its start point,
    with the device outputs there (what a Newton that found no step
    hands back), so the march sends it to the ladder.
    """

    def newton(plan, x0, linearized=None, **kwargs):
        rows = newton_many(plan, x0, linearized=linearized, **kwargs)
        if kwargs["time_s"] != RESCUE_STEP * DT or row >= x0.shape[0]:
            return rows
        stuck = newton_many(
            plan, x0[[row]], max_iterations=0,
            linearized=None if linearized is None else [None] * len(linearized),
            **take_rows(kwargs, np.array([row])),
        )
        assert not stuck.converged[0]
        x, converged = rows.x.copy(), rows.converged.copy()
        x[row], converged[row] = stuck.x[0], False
        if rows.linearized is not None:
            for a, a_stuck in zip(rows.linearized, stuck.linearized):
                a[:, row] = a_stuck[:, 0]
        return rows._replace(x=x, converged=converged)

    return newton


@pytest.mark.parametrize("rescue", [False, True], ids=["plain", "rescue"])
@pytest.mark.parametrize("m", [1, 3], ids=["one_row", "stacked"])
@pytest.mark.parametrize("integrator", ["trapezoidal", "backward-euler"])
@pytest.mark.parametrize("name", sorted(DEVICES))
def test_march_is_bitwise_the_relinearizing_loop(name, integrator, m, rescue, monkeypatch):
    system = _chain(DEVICES[name]()).build_system()
    plan = system._plan
    variation = FETVariation.sample(
        m, 4, seed=29, drive_sigma=0.2, vth_sigma_v=0.02
    )
    x0 = _start(plan, system, variation)
    newton = _rescuing(m // 2) if rescue else newton_many
    monkeypatch.setattr(transient_module, "newton_many", newton)
    samples, rescued, errors = march(
        plan, x0.copy(), N_STEPS, DT, integrator, variation=variation
    )
    assert not errors
    assert rescued.tolist() == [rescue and i == m // 2 for i in range(m)]
    reference = reference_march(plan, x0, N_STEPS, DT, integrator, variation, newton)
    assert not np.isnan(samples).any()
    assert np.array_equal(samples, reference)


def test_outputs_at_the_final_iterate_are_a_fresh_linearization():
    """``newton_many``'s outputs are what the device gives at each final iterate."""
    system = _chain(NonSaturatingFET()).build_system()
    plan = system._plan
    variation = FETVariation.sample(3, 4, seed=3, drive_sigma=0.2, vth_sigma_v=0.02)
    x0 = _start(plan, system, variation)
    context = {"time_s": RESCUE_STEP * DT, "dt_s": DT, "integrator": "trapezoidal"}
    rows = newton_many(
        plan, x0, linearized=[None], variation=variation, previous_x=x0, **context
    )
    assert rows.converged.all() and rows.iterations.min() > 0
    fresh = [None]
    plan.evaluate_many(rows.x, variation=variation, previous_x=x0, linearized=fresh, **context)
    (carried,), (group,) = rows.linearized, plan.fet_groups
    assert carried.shape == (3, 3, group.count)
    assert np.array_equal(carried, fresh[0])


def test_only_a_caller_that_asks_gets_outputs():
    system = _chain(AlphaPowerFET()).build_system()
    x0 = structural_seed(system, time_s=0.0)[None]
    assert newton_many(system._plan, x0, time_s=0.0).linearized is None


@pytest.mark.parametrize("m", [1, 3])
def test_each_step_after_the_first_skips_its_start_point_device_call(m, monkeypatch):
    """Step 1 starts from the t=0 solve, which carries no outputs; every later step does."""
    system = _chain(AlphaPowerFET()).build_system()
    plan = system._plan
    (group,) = plan.fet_groups  # n- and mirrored p-FETs share one device call
    variation = FETVariation.sample(m, 4, seed=5, drive_sigma=0.2, vth_sigma_v=0.02)
    x0 = _start(plan, system, variation)
    calls = {"evaluate": 0, "linearize": 0}
    evaluate, linearize = StampPlan.evaluate_many, AlphaPowerFET.linearize

    def counted_evaluate(self, *args, **kwargs):
        calls["evaluate"] += 1
        return evaluate(self, *args, **kwargs)

    def counted_linearize(self, *args, **kwargs):
        calls["linearize"] += 1
        return linearize(self, *args, **kwargs)

    monkeypatch.setattr(StampPlan, "evaluate_many", counted_evaluate)
    monkeypatch.setattr(AlphaPowerFET, "linearize", counted_linearize)
    samples, rescued, _ = march(plan, x0, N_STEPS, DT, "trapezoidal", variation=variation)
    assert not rescued.any() and not np.isnan(samples).any()
    assert calls["evaluate"] > 2 * N_STEPS
    assert calls["linearize"] == calls["evaluate"] - (N_STEPS - 1)
