"""Compiled stamp-plan assembly vs the dense reference evaluator.

The contract of :mod:`repro.circuit.assembly`: for every supported
circuit and every evaluation context (DC, transient companion models,
homotopy scalings), the compiled plan's residual and Jacobian match the
element-walking reference path to 1e-12.  Representative circuits cover
every element type, shared nodes, ground coupling, mixed n/p FET groups,
and both the dense and sparse assembly regimes.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.circuit.assembly import SPARSE_THRESHOLD, StampPlan, UnsupportedElement
from repro.circuit.elements import Capacitor, Element, StampContext
from repro.circuit.netlist import Circuit
from repro.circuit.solver import _solve_stack, newton_solve, operating_point, solve_dc
from repro.circuit.waveforms import DC, Pulse, Sine
from repro.devices.base import PType
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET, TabulatedFET
from repro.devices.reference import TrigateFET
from repro.devices.surrogate import GridSpec, compile_surrogate
from repro.experiments.cascade import build_inverter_chain

ATOL = 1e-12


def rc_ladder(n_sections=4):
    c = Circuit("rc-ladder")
    c.add_voltage_source("V1", "n0", "0", Pulse(0.0, 1.0, rise_s=1e-11))
    for i in range(n_sections):
        c.add_resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3 * (i + 1))
        c.add_capacitor(f"C{i}", f"n{i+1}", "0", 1e-13)
    c.add_current_source("I1", "0", f"n{n_sections}", Sine(0.0, 1e-6, 1e9))
    return c


def inverter(nfet=None):
    c = Circuit("inverter")
    nfet = AlphaPowerFET() if nfet is None else nfet
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "in", "0", DC(0.4))
    c.add_fet("MP", "out", "in", "vdd", PType(nfet))
    c.add_fet("MN", "out", "in", "0", nfet)
    c.add_capacitor("CL", "out", "0", 1e-14)
    return c


def mixed_chain(n_stages=5):
    """Chain mixing two different n-type models and their p mirrors."""
    c = Circuit("mixed-chain")
    models = (AlphaPowerFET(), NonSaturatingFET())
    c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    c.add_voltage_source("VIN", "s0", "0", DC(0.2))
    for i in range(n_stages):
        nfet = models[i % 2]
        c.add_fet(f"MP{i}", f"s{i+1}", f"s{i}", "vdd", PType(nfet))
        c.add_fet(f"MN{i}", f"s{i+1}", f"s{i}", "0", nfet)
        c.add_capacitor(f"C{i}", f"s{i+1}", "0", 1e-15)
    c.add_resistor("RL", f"s{n_stages}", "0", 1e6)
    return c


def single_fet():
    """One FET + one p-mirror FET, each alone in its device group.

    Exercises the compiled plan's scalar fast path (``count == 1``
    groups stamp through ``linearize_point`` with plain-int indices)
    against the element-walking reference.
    """
    c = Circuit("single-fet")
    c.add_voltage_source("VD", "d", "0", DC(0.8))
    c.add_voltage_source("VG", "g", "0", DC(0.5))
    c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
    c.add_fet("M2", "d", "g", "0", PType(NonSaturatingFET()))
    c.add_resistor("RL", "d", "0", 1e5)
    return c


def big_ladder():
    """Resistor/FET ladder large enough to cross the sparse threshold."""
    c = Circuit("big-ladder")
    nfet = AlphaPowerFET()
    c.add_voltage_source("V1", "n0", "0", DC(1.0))
    n = SPARSE_THRESHOLD + 10
    for i in range(n):
        c.add_resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3)
        if i % 7 == 0:
            c.add_fet(f"M{i}", f"n{i+1}", f"n{i}", "0", nfet)
        if i % 5 == 0:
            c.add_capacitor(f"C{i}", f"n{i+1}", "0", 1e-14)
    return c


CIRCUITS = {
    "rc_ladder": rc_ladder,
    "inverter": inverter,
    "single_fet": single_fet,
    "mixed_chain": mixed_chain,
    "big_ladder": big_ladder,
}

CONTEXTS = {
    "dc": {},
    "dc_timed": dict(time_s=3e-10),
    "gmin": dict(gmin=1e-6),
    "trapezoidal": dict(time_s=1e-10, dt_s=1e-12, integrator="trapezoidal"),
    "backward_euler": dict(time_s=1e-10, dt_s=1e-12, integrator="backward-euler"),
}


def _as_dense(jacobian):
    return jacobian.toarray() if hasattr(jacobian, "toarray") else np.array(jacobian)


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_compiled_matches_reference(circuit_name, context):
    system = CIRCUITS[circuit_name]().build_system()
    rng = np.random.default_rng(hash(circuit_name) % 2**32)
    kwargs = dict(CONTEXTS[context])
    if "dt_s" in kwargs:
        kwargs["previous_x"] = rng.normal(scale=0.5, size=system.size)
        kwargs["state"] = {
            el.name: rng.normal() * 1e-7
            for el in system.circuit.elements
            if type(el).__name__ == "Capacitor"
        }
    for _ in range(3):
        x = rng.normal(scale=0.7, size=system.size)
        res_c, jac_c = system.evaluate(x, **kwargs)
        res_c, jac_c = res_c.copy(), _as_dense(jac_c)  # detach reused buffers
        res_d, jac_d = system.evaluate_dense(x, **kwargs)
        np.testing.assert_allclose(res_c, res_d, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(jac_c, jac_d, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_solutions_agree_between_paths(circuit_name):
    """Newton through the compiled path lands on a reference-path zero."""
    system = CIRCUITS[circuit_name]().build_system()
    x = solve_dc(system)
    residual, _ = system.evaluate_dense(x)
    assert np.max(np.abs(residual)) < 1e-9


def test_sparse_regime_uses_sparse_jacobian():
    system = big_ladder().build_system()
    assert system.size >= SPARSE_THRESHOLD
    _, jacobian = system.evaluate(np.zeros(system.size))
    assert hasattr(jacobian, "toarray")
    x, converged = newton_solve(system, np.zeros(system.size))
    assert converged
    residual, _ = system.evaluate_dense(x)
    assert np.max(np.abs(residual)) < 1e-9


def test_sparse_newton_caches_symbolic_analysis():
    """One symbolic ordering serves every factorization of a solve."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    from repro.circuit.assembly import DIAG_REGULARIZATION

    system = big_ladder().build_system()
    plan = system._plan
    assert plan is not None and plan.use_sparse
    x, converged = newton_solve(system, np.zeros(system.size))
    assert converged
    # Many Newton factorizations, exactly one symbolic analysis.
    assert plan.sparse_schedule.n_symbolic == 1

    # The cached-ordering factorization solves the same linear system
    # scipy's from-scratch sparse solve does.
    residual, jacobian = system.evaluate(x + 0.01)
    residual = residual.copy()
    regularized = jacobian + DIAG_REGULARIZATION * identity(system.size)
    steps = _solve_stack(plan, jacobian.data[None].copy(), residual[None])
    reference = spsolve(regularized.tocsc(), -residual)
    np.testing.assert_allclose(steps[0], reference, rtol=1e-9, atol=1e-12)
    assert plan.sparse_schedule.n_symbolic == 1


@pytest.fixture(scope="module")
def chain600_pencil():
    """600-stage chain plan with its DC Jacobian and capacitance data."""
    system = build_inverter_chain(AlphaPowerFET(), n_stages=600).build_system()
    _, jacobian = operating_point(system)
    plan = system._plan
    return plan.sparse_schedule, jacobian.data, plan.capacitance_stamp()


@pytest.mark.parametrize("frequency_hz", [0.0, 1e3])
def test_sparse_factor_uses_superlu_column_order(chain600_pencil, frequency_hz):
    """The pre-gathered layout factors in the order SuperLU analysed.

    SuperLU's ``perm_c`` factors ``A[:, argsort(perm_c)]``; gathering
    ``A[:, perm_c]`` instead scrambles the order, and at 1 kHz the
    chain's factor then holds ~39x the pattern's nonzeros.
    """
    from scipy.sparse.linalg import splu

    schedule, conductance, capacitance = chain600_pencil
    data = conductance + (2j * np.pi * frequency_hz) * capacitance
    solve = schedule.factor(data)
    permuted = sparse.csc_matrix(
        (data[schedule._b_gather], schedule._b_indices, schedule._b_indptr),
        shape=(schedule.size, schedule.size),
    )
    lu = splu(permuted, permc_spec="NATURAL")
    assert lu.L.nnz + lu.U.nnz <= 1.5 * schedule.nnz
    rhs = np.linspace(-1.0, 1.0, schedule.size)
    residual = schedule.matrix(data) @ solve(rhs) - rhs
    assert np.max(np.abs(residual)) < 1e-9


def test_plan_reuses_across_waveform_mutation():
    """Waveform swaps between calls are picked up by the compiled plan."""
    circuit = inverter()
    system = circuit.build_system()
    source = next(el for el in circuit.elements if el.name == "VIN")
    x = np.zeros(system.size)
    for level in (0.0, 0.5, 1.0):
        source.waveform = DC(level)
        res_c, _ = system.evaluate(x)
        res_c = res_c.copy()
        res_d, _ = system.evaluate_dense(x)
        np.testing.assert_allclose(res_c, res_d, atol=ATOL, rtol=0.0)


@pytest.mark.parametrize("build", [inverter, single_fet])
def test_per_row_source_levels_match_swapped_waveforms(build):
    """Row ``i`` of a ``source_levels`` stack is the reference evaluator
    with every voltage source's waveform set to that row's levels."""
    circuit = build()
    system = circuit.build_system()
    plan = system._plan
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(4, system.size))
    levels = rng.uniform(-0.2, 1.2, size=(4, len(plan.vsources)))
    residual, jacobian = plan.evaluate_many(x, source_levels=levels)
    for row, row_levels in enumerate(levels):
        for source, level in zip(plan.vsources, row_levels):
            source.waveform = DC(float(level))
        res_d, jac_d = system.evaluate_dense(x[row])
        np.testing.assert_allclose(residual[row], res_d, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(jacobian[row], jac_d, atol=ATOL, rtol=0.0)


def test_capacitor_state_update_matches_reference():
    """Both compiled history updates against the element walk.

    ``update_capacitor_state`` (the dict form) and ``cap_state_update``
    on a padded ``(m, size + 1)`` stack — the update the time-step loop
    makes — must agree with ``Capacitor.update_state``.
    """
    circuit = rc_ladder()
    system = circuit.build_system()
    plan = system._plan
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, system.size))
    previous = rng.normal(size=(3, system.size))
    states = rng.normal(size=(3, len(plan.cap_names))) * 1e-7

    pad = np.zeros((3, 1))
    for integrator in ("trapezoidal", "backward-euler"):
        stacked = plan.cap_state_update(
            np.hstack((x, pad)), np.hstack((previous, pad)), 1e-12, integrator, states
        )
        for row in range(3):
            state_ref = dict(zip(plan.cap_names, states[row]))
            state_plan = dict(state_ref)
            system.update_capacitor_state(
                x[row], previous[row], 1e-12, integrator, state_plan
            )
            ctx = StampContext(
                system=system, x=x[row], residual=None, jacobian=None, dt_s=1e-12,
                previous_x=previous[row], integrator=integrator, state=state_ref,
            )
            walked = [
                el.update_state(ctx)
                for el in circuit.elements
                if isinstance(el, Capacitor)
            ]
            # Same expression on both sides, so the agreement is exact.
            assert stacked[row].tolist() == walked
            assert [state_plan[name] for name in plan.cap_names] == walked


def test_unsupported_element_rejected_at_build():
    class Shunt(Element):
        name = "X1"
        nodes = ("a",)

        def contribute(self, ctx):
            ctx.add_current("a", 1e-6)

    c = Circuit("custom")
    c.add_voltage_source("V1", "a", "0", DC(1.0))
    c.add_resistor("R1", "a", "0", 1e3)
    c.add(Shunt())
    with pytest.raises(UnsupportedElement, match=r"'X1'.*Shunt"):
        c.build_system()


def test_standalone_plan_compiles_small_circuits():
    """The plan itself is exercised even for circuits a heuristic might skip."""
    system = inverter().build_system()
    plan = StampPlan(system)
    x = np.full(system.size, 0.3)
    res_p, jac_p = plan.evaluate_many(x[None], gmin=1e-9)
    res_p, jac_p = res_p[0], jac_p[0]
    res_d, jac_d = system.evaluate_dense(x, gmin=1e-9)
    np.testing.assert_allclose(res_p, res_d, atol=ATOL, rtol=0.0)
    np.testing.assert_allclose(jac_p, jac_d, atol=ATOL, rtol=0.0)


def _has_point_groups(plan) -> bool:
    return not plan.use_sparse and any(g.use_points for g in plan.fet_groups)


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("circuit_name", CIRCUITS)
def test_one_row_call_matches_stacked_row(circuit_name, context):
    """A one-row ``evaluate_many`` is the same row of a 3-row stack.

    Bitwise where every FET group takes the array path (dense and
    sparse).  Small dense groups stamp through the scalar point path on
    a one-row stack — libm ``math`` calls instead of numpy's SIMD loops
    and a per-FET accumulation order — so plans with such a group are
    held to 1e-15 of each output's scale.
    """
    system = CIRCUITS[circuit_name]().build_system()
    plan = system._plan
    rng = np.random.default_rng(list(CIRCUITS).index(circuit_name))
    kwargs = dict(CONTEXTS[context])
    if "dt_s" in kwargs:
        kwargs["previous_x"] = rng.normal(scale=0.5, size=(3, system.size))
        kwargs["state"] = rng.normal(size=(3, len(plan.cap_names))) * 1e-7
    x = rng.normal(scale=0.7, size=(3, system.size))
    stacked = plan.evaluate_many(x, **kwargs)
    for row in range(3):
        row_kwargs = {
            key: value[row : row + 1] if key in ("previous_x", "state") else value
            for key, value in kwargs.items()
        }
        single = plan.evaluate_many(x[row : row + 1], **row_kwargs)
        for got, want in zip(single, stacked):
            if _has_point_groups(plan):
                scale = np.max(np.abs(want[row]))
                np.testing.assert_allclose(got[0], want[row], rtol=0.0, atol=1e-15 * scale)
            else:
                assert np.array_equal(got[0], want[row])


@pytest.mark.parametrize("circuit_name", ["mixed_chain", "rc_ladder", "big_ladder"])
def test_stack_heights_agree_row_by_row(circuit_name):
    """Any stack height gives every row the same bits, in any call order.

    Dense plans keep the index layout of the tallest stack and serve
    shorter ones from its first rows; sparse plans rebuild it per call.
    """
    system = CIRCUITS[circuit_name]().build_system()
    rng = np.random.default_rng(11)
    x = rng.normal(scale=0.7, size=(5, system.size))
    kwargs = dict(CONTEXTS["trapezoidal"], previous_x=x[::-1].copy())
    reference = system._plan.evaluate_many(x, **kwargs)
    for rows in (slice(0, 2), slice(0, 5), slice(1, 4), slice(0, 3)):
        sub = dict(kwargs, previous_x=kwargs["previous_x"][rows])
        for got, want in zip(system._plan.evaluate_many(x[rows], **sub), reference):
            assert np.array_equal(got, want[rows])


@pytest.mark.parametrize("circuit_name", ["inverter", "big_ladder"])
def test_system_evaluate_returns_fresh_arrays(circuit_name):
    """Successive ``MNASystem.evaluate`` results never share memory."""
    system = CIRCUITS[circuit_name]().build_system()
    x = np.full(system.size, 0.3)
    first = system.evaluate(x)
    kept = [_as_dense(a) for a in first]
    second = system.evaluate(x + 0.1)
    for a, b, before in zip(first, second, kept):
        np.testing.assert_array_equal(_as_dense(a), before)
        a, b = (m.data if sparse.issparse(m) else m for m in (a, b))
        assert not np.shares_memory(a, b)


_POINT_PATH_DEVICES = {
    # Closed-form linearize_point overrides: the scalar point path.
    "alpha_power": (AlphaPowerFET, True),
    "trigate": (TrigateFET, True),
    "non_saturating": (NonSaturatingFET, True),
    "surrogate": (
        lambda: compile_surrogate(
            AlphaPowerFET(),
            GridSpec(initial_points=(8, 8), max_refinements=0),
        ),
        True,
    ),
    # Finite-difference models: always the batched path.
    "tabulated": (
        lambda: TabulatedFET.from_model(
            AlphaPowerFET(), np.linspace(-0.3, 1.3, 9), np.linspace(0.0, 1.3, 9)
        ),
        False,
    ),
    "cntfet": (CNTFET.reference_device, False),
    "series_resistance": (
        lambda: SeriesResistanceFET(AlphaPowerFET(), 1e3, 1e3),
        False,
    ),
}


@pytest.mark.parametrize("name", _POINT_PATH_DEVICES)
def test_point_path_follows_the_device_class(name, monkeypatch):
    """Only classes that override ``linearize_point`` take the point path."""
    monkeypatch.setenv("REPRO_SURROGATE_CACHE", "off")
    make, expected = _POINT_PATH_DEVICES[name]
    (group,) = inverter(make()).build_system()._plan.fet_groups
    assert group.count == 2
    assert group.use_points is expected


def test_point_path_only_for_one_row_without_variation(monkeypatch, sparse_fet_ladder):
    """A small dense group takes ``stamp_points`` only at m == 1, no variation."""
    from repro.circuit.assembly import SCALAR_GROUP_MAX, _FETGroup
    from repro.circuit.sweep import FETVariation

    calls = []
    stamp_points = _FETGroup.stamp_points

    def counting(self, *args):
        calls.append(self.count)
        return stamp_points(self, *args)

    monkeypatch.setattr(_FETGroup, "stamp_points", counting)

    plan = inverter().build_system()._plan
    (group,) = plan.fet_groups
    assert group.count <= SCALAR_GROUP_MAX and group.use_points
    x = np.full((3, plan.size), 0.3)
    plain = FETVariation(drive_scale=np.ones((1, 2)), vth_shift_v=np.zeros((1, 2)))
    for stack, variation, expected in (
        (x[:1], None, [2]),
        (x, None, []),
        (x[:1], plain, []),
    ):
        calls.clear()
        plan.evaluate_many(stack, variation=variation)
        assert calls == expected

    big = mixed_chain().build_system()._plan
    assert [g.use_points for g in big.fet_groups] == [
        g.count <= SCALAR_GROUP_MAX for g in big.fet_groups
    ]

    sparse_plan = sparse_fet_ladder().build_system()._plan
    assert sparse_plan.use_sparse and sparse_plan.fet_groups[0].count == 1
    calls.clear()
    sparse_plan.evaluate_many(np.zeros((1, sparse_plan.size)))
    assert calls == []
