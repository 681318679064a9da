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

from repro.circuit.assembly import SPARSE_THRESHOLD, StampPlan, UnsupportedElement
from repro.circuit.elements import Element
from repro.circuit.netlist import Circuit
from repro.circuit.solver import newton_solve, solve_dc
from repro.circuit.waveforms import DC, Pulse, Sine
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET

ATOL = 1e-12


def rc_ladder(n_sections=4):
    c = Circuit("rc-ladder")
    c.add_voltage_source("V1", "n0", "0", Pulse(0.0, 1.0, rise_s=1e-11))
    for i in range(n_sections):
        c.add_resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3 * (i + 1))
        c.add_capacitor(f"C{i}", f"n{i+1}", "0", 1e-13)
    c.add_current_source("I1", "0", f"n{n_sections}", Sine(0.0, 1e-6, 1e9))
    return c


def inverter():
    c = Circuit("inverter")
    nfet = AlphaPowerFET()
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
    "source_step": dict(source_scale=0.35),
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
    step = plan.sparse_newton_step(jacobian, residual)
    regularized = jacobian + DIAG_REGULARIZATION * identity(system.size)
    reference = spsolve(regularized.tocsc(), -residual)
    np.testing.assert_allclose(step, reference, rtol=1e-9, atol=1e-12)
    assert plan.sparse_schedule.n_symbolic == 1


def test_plan_reuses_across_waveform_mutation():
    """dc_sweep-style waveform swaps are picked up by the compiled plan."""
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


def test_capacitor_state_update_matches_reference():
    circuit = rc_ladder()
    system = circuit.build_system()
    rng = np.random.default_rng(7)
    x = rng.normal(size=system.size)
    previous = rng.normal(size=system.size)
    state_plan = {f"C{i}": rng.normal() * 1e-7 for i in range(4)}
    state_ref = dict(state_plan)

    system.update_capacitor_state(x, previous, 1e-12, "trapezoidal", state_plan)

    from repro.circuit.elements import Capacitor, StampContext

    ctx = StampContext(
        system=system, x=x, residual=None, jacobian=None,
        dt_s=1e-12, previous_x=previous, integrator="trapezoidal", state=state_ref,
    )
    for el in circuit.elements:
        if isinstance(el, Capacitor):
            state_ref[el.name] = el.update_state(ctx)
    for name in state_ref:
        assert state_plan[name] == pytest.approx(state_ref[name], abs=1e-18)


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
    res_p, jac_p = plan.evaluate(x, gmin=1e-9)
    res_p, jac_p = res_p.copy(), _as_dense(jac_p)
    res_d, jac_d = system.evaluate_dense(x, gmin=1e-9)
    np.testing.assert_allclose(res_p, res_d, atol=ATOL, rtol=0.0)
    np.testing.assert_allclose(jac_p, jac_d, atol=ATOL, rtol=0.0)
