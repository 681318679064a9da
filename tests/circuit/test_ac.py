"""Small-signal AC analysis against closed-form frequency responses.

Plus the compiled-path contracts: the stacked complex sweep
(:class:`ACPlan`) is pinned to a per-frequency dense-loop oracle at
1e-9 in both the dense and sparse regimes, and the batched corners
are bitwise invariant to corner order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.ac import (
    ACPlan,
    ACResult,
    BatchedACResult,
    _unity_gain_crossing,
    ac_analysis,
    ac_monte_carlo,
    dense_frequency_loop,
)
from repro.circuit.cells import build_inverter
from repro.circuit.elements import Capacitor, VoltageSource
from repro.circuit.netlist import Circuit, CircuitError, SolutionLayout
from repro.circuit.solver import solve_dc
from repro.circuit.sweep import FETVariation
from repro.circuit.waveforms import DC
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit()
    circuit.add_voltage_source("VIN", "a", "0", DC(0.0))
    circuit.add_resistor("R", "a", "b", r)
    circuit.add_capacitor("C", "b", "0", c)
    return circuit


class TestRCLowpass:
    def test_matches_analytic_magnitude(self):
        r, c = 1e3, 1e-9
        frequencies = np.logspace(3, 8, 61)
        result = ac_analysis(rc_lowpass(r, c), "VIN", frequencies)
        measured = np.abs(result.transfer("b"))
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * frequencies * r * c) ** 2)
        assert np.max(np.abs(measured - expected)) < 1e-9

    def test_phase_approaches_minus_90(self):
        result = ac_analysis(rc_lowpass(), "VIN", np.logspace(3, 9, 61))
        phase = np.degrees(np.angle(result.transfer("b")))
        assert phase[0] == pytest.approx(0.0, abs=1.0)
        assert phase[-1] == pytest.approx(-90.0, abs=2.0)

    def test_input_node_is_unity(self):
        result = ac_analysis(rc_lowpass(), "VIN", np.logspace(3, 6, 11))
        assert np.abs(result.transfer("a")) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(CircuitError):
            ac_analysis(rc_lowpass(), "VIN", [])
        with pytest.raises(CircuitError):
            ac_analysis(rc_lowpass(), "VIN", [-1.0])
        with pytest.raises(CircuitError):
            ac_analysis(rc_lowpass(), "VX", [1e3])


class TestRCDivider:
    def test_resistive_divider_flat(self):
        circuit = Circuit()
        circuit.add_voltage_source("VIN", "a", "0", DC(0.0))
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 3e3)
        result = ac_analysis(circuit, "VIN", np.logspace(2, 9, 15))
        assert np.abs(result.transfer("b")) == pytest.approx(0.75, abs=1e-12)


class TestAmplifier:
    def make_common_source(self, load_c=1e-15):
        circuit = Circuit()
        circuit.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        circuit.add_voltage_source("VIN", "in", "0", DC(0.5))
        fet = AlphaPowerFET()
        circuit.add_fet("MP", "out", "in", "vdd", PType(fet))
        circuit.add_fet("MN", "out", "in", "0", fet)
        circuit.add_capacitor("CL", "out", "0", load_c)
        return circuit

    def test_inverter_gain_at_low_frequency(self):
        circuit = self.make_common_source()
        result = ac_analysis(circuit, "VIN", np.logspace(3, 6, 7))
        # At V_M the inverter's small-signal gain is -(gm_n+gm_p)/(gds sum),
        # well above 1 for saturating devices.
        gain = np.abs(result.transfer("out"))[0]
        assert gain > 5.0

    def test_single_pole_rolloff(self):
        circuit = self.make_common_source(load_c=1e-12)
        frequencies = np.logspace(5, 12, 71)
        result = ac_analysis(circuit, "VIN", frequencies)
        magnitude = np.abs(result.transfer("out"))
        # -20 dB/decade well past the pole.
        ratio = magnitude[-1] / magnitude[-8]
        decades = np.log10(frequencies[-1] / frequencies[-8])
        assert 20 * np.log10(ratio) == pytest.approx(-20 * decades, abs=1.5)

    def test_unity_gain_frequency(self):
        circuit = self.make_common_source(load_c=1e-12)
        result = ac_analysis(circuit, "VIN", np.logspace(5, 12, 141))
        ugf = unity_gain_frequency_hz(result, "out")
        # gm/(2 pi C) scale: a few hundred MHz for ~0.5 mS into 1 pF.
        assert 1e7 < ugf < 1e10


def unity_gain_frequency_hz(result: ACResult, node: str) -> float:
    """First falling unity crossing of one response; raises when none.

    The scalar reading of the crossing kernel that
    :meth:`BatchedACResult.unity_gain_frequencies_hz` applies per corner.
    """
    magnitude = np.abs(result.transfer(node))
    crossing = _unity_gain_crossing(result.frequencies_hz, magnitude)
    if crossing is None:
        if not (magnitude >= 1.0).any():
            raise CircuitError("response never reaches unity in the swept range")
        raise CircuitError("response never crosses unity in the swept range")
    return crossing


def synthetic_response(magnitudes):
    """ACResult with a prescribed |H| on a decade-spaced grid."""
    magnitudes = np.asarray(magnitudes, dtype=float)
    frequencies = np.logspace(6, 6 + magnitudes.size - 1, magnitudes.size)
    return ACResult(
        layout=SolutionLayout(nodes={"out": 0}, branches={}),
        samples=magnitudes.astype(complex)[:, None],
        frequencies_hz=frequencies,
    )


class TestUnityGainEdgeCases:
    """Falling-edge detection must not wrap around the sweep ends."""

    def test_falling_crossing_interpolates_on_log_axes(self):
        # 10x above at 1e6 Hz, 10x below at 1e7 Hz: the log-log
        # interpolated crossing sits at the geometric mean.
        result = synthetic_response([10.0, 0.1, 0.01])
        ugf = unity_gain_frequency_hz(result, "out")
        assert ugf == pytest.approx(np.sqrt(1e6 * 1e7), rel=1e-12)

    def test_start_below_end_above_raises(self):
        # The old np.roll formulation wrapped above[-1] into position 0
        # and fabricated a crossing at the first sweep point.
        result = synthetic_response([0.5, 2.0, 4.0, 8.0])
        with pytest.raises(CircuitError, match="never crosses"):
            unity_gain_frequency_hz(result, "out")

    def test_band_pass_finds_real_falling_edge(self):
        # Rises through unity, then falls back below: only the falling
        # edge (between the last two points) counts.  The wrap used to
        # mask it with a spurious edge at index 0.
        result = synthetic_response([0.5, 2.0, 2.0, 0.5])
        ugf = unity_gain_frequency_hz(result, "out")
        assert ugf == pytest.approx(np.sqrt(1e8 * 1e9), rel=1e-12)

    def test_never_reaching_unity_raises(self):
        result = synthetic_response([0.1, 0.2, 0.3])
        with pytest.raises(CircuitError, match="never reaches"):
            unity_gain_frequency_hz(result, "out")

    def test_entirely_above_unity_raises(self):
        result = synthetic_response([5.0, 4.0, 3.0])
        with pytest.raises(CircuitError, match="never crosses"):
            unity_gain_frequency_hz(result, "out")


class TestFrequencyGridValidation:
    """Unsorted grids must fail at the boundary, not corrupt UGF interp."""

    def test_descending_rejected(self):
        with pytest.raises(CircuitError, match="strictly increasing"):
            ac_analysis(rc_lowpass(), "VIN", [1e6, 1e5, 1e4])
        # A reused plan's sweep validates its grid too.
        with pytest.raises(CircuitError, match="strictly increasing"):
            ACPlan(rc_lowpass(), "VIN").sweep([1e6, 1e3])

    def test_shuffled_rejected(self):
        with pytest.raises(CircuitError, match="strictly increasing"):
            ac_analysis(rc_lowpass(), "VIN", [1e3, 1e6, 1e4])

    def test_duplicates_rejected(self):
        with pytest.raises(CircuitError, match="strictly increasing"):
            ac_analysis(rc_lowpass(), "VIN", [1e3, 1e3, 1e4])

    def test_nonfinite_rejected(self):
        with pytest.raises(CircuitError, match="positive and finite"):
            ac_analysis(rc_lowpass(), "VIN", [1e3, np.inf])


def _dense_capacitance(circuit, system):
    """Element-walk capacitance build, independent of the stamp plan."""
    capacitance = np.zeros((system.size, system.size))
    for element in circuit.elements:
        if not isinstance(element, Capacitor):
            continue
        ip = system.node_index(element.p)
        in_ = system.node_index(element.n)
        if ip is not None:
            capacitance[ip, ip] += element.capacitance_f
        if in_ is not None:
            capacitance[in_, in_] += element.capacitance_f
        if ip is not None and in_ is not None:
            capacitance[ip, in_] -= element.capacitance_f
            capacitance[in_, ip] -= element.capacitance_f
    return capacitance


def legacy_ac(circuit, source, frequencies):
    """Oracle: the pre-compile AC analysis, one dense solve per frequency.

    G comes from the element-walking reference evaluator at the DC
    point and C from an element walk, so nothing but the DC solve goes
    through the stamp plan.
    """
    system = circuit.build_system()
    x_dc = solve_dc(system)
    _, conductance = system.evaluate_dense(x_dc)
    drive = next(
        el for el in circuit.elements
        if isinstance(el, VoltageSource) and el.name == source
    )
    rhs = np.zeros(system.size)
    rhs[drive.branch_index] = 1.0
    samples = dense_frequency_loop(
        conductance, _dense_capacitance(circuit, system), rhs, frequencies
    )
    return ACResult(
        layout=system.layout,
        samples=samples,
        frequencies_hz=np.asarray(frequencies),
    )


def _equivalence(circuit, source, frequencies, tolerance=1e-9):
    compiled = ac_analysis(circuit, source, frequencies)
    legacy = legacy_ac(circuit, source, frequencies)
    worst = max(
        float(np.abs(compiled.transfer(n) - legacy.transfer(n)).max())
        for n in circuit.node_names
    )
    assert worst < tolerance, f"compiled-vs-legacy max deviation {worst}"
    return compiled


class TestCompiledLegacyEquivalence:
    """The stacked complex sweep is pinned to the per-frequency loop."""

    def test_rc_lowpass(self):
        _equivalence(rc_lowpass(), "VIN", np.logspace(3, 9, 40))

    def test_resistive_divider(self):
        circuit = Circuit()
        circuit.add_voltage_source("VIN", "a", "0", DC(0.0))
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 3e3)
        _equivalence(circuit, "VIN", np.logspace(2, 9, 25))

    def test_fet_amplifier_dense(self):
        circuit = TestAmplifier().make_common_source(load_c=1e-12)
        assert not ACPlan(circuit, "VIN").use_sparse
        _equivalence(circuit, "VIN", np.logspace(5, 12, 30))

    def test_inverter_chain_sparse_regime(self):
        circuit = build_inverter_chain(AlphaPowerFET(), 200)
        plan = ACPlan(circuit, "VIN")
        assert plan.use_sparse  # 204 unknowns: above SPARSE_THRESHOLD
        _equivalence(circuit, "VIN", np.logspace(4, 9, 6))

    def test_repeated_sweeps_reuse_schur_reduction(self):
        plan = ACPlan(rc_lowpass(), "VIN")
        frequencies = np.logspace(3, 8, 50)
        first = plan.sweep(frequencies)
        assert plan._schur is not None  # QZ compiled lazily on first sweep
        again = plan.sweep(frequencies)
        assert np.array_equal(first.transfer("b"), again.transfer("b"))


def _g_circuit(name):
    if name == "amplifier":
        return TestAmplifier().make_common_source(load_c=1e-12)
    n_stages = {"chain8": 8, "chain130": 130}[name]
    return build_inverter_chain(AlphaPowerFET(), n_stages)


class TestOperatingPointConductance:
    """G is the stamp plan's Jacobian row at the DC solution."""

    @pytest.mark.parametrize(
        "name, sparse", [("amplifier", False), ("chain8", False), ("chain130", True)]
    )
    def test_g_is_the_evaluated_jacobian_bitwise(self, name, sparse):
        plan = ACPlan(_g_circuit(name), "VIN")
        assert plan.use_sparse == sparse
        _, jacobian = plan.system.evaluate(plan.x_dc)
        expected = jacobian.data if sparse else jacobian
        assert np.array_equal(plan._pencil[0], expected)

    @pytest.mark.parametrize("name", ["amplifier", "chain8", "chain130"])
    def test_g_matches_the_reference_evaluator(self, name):
        plan = ACPlan(_g_circuit(name), "VIN")
        _, reference = plan.system.evaluate_dense(plan.x_dc)
        g = plan._pencil[0]
        if plan.use_sparse:
            g = plan._schedule.matrix(g).toarray()
        scale = np.abs(reference).max()
        assert np.abs(g - reference).max() <= 1e-12 * scale


# -- module-level lazy caches so hypothesis examples reuse one expensive
#    setup (plan construction / reference MC run) without function-scoped
#    fixture health-check violations.
_INVARIANCE_CACHE: dict = {}


def _batched_reference() -> tuple[Circuit, FETVariation, BatchedACResult, np.ndarray]:
    if "batched" not in _INVARIANCE_CACHE:
        cell = build_inverter(AlphaPowerFET(), input_waveform=DC(0.5))
        variation = FETVariation.sample(16, 2, seed=20140314, vth_sigma_v=0.01)
        frequencies = np.logspace(6, 11, 21)
        base = ac_monte_carlo(cell.circuit, "VIN", frequencies, variation)
        _INVARIANCE_CACHE["batched"] = (cell.circuit, variation, base, frequencies)
    return _INVARIANCE_CACHE["batched"]


class TestBatchedInvariance:
    """Corner order never changes a bit of the results."""

    @settings(deadline=None, max_examples=6)
    @given(st.permutations(list(range(16))))
    def test_instance_order_bitwise_invariant(self, order):
        circuit, variation, base, frequencies = _batched_reference()
        permutation = np.asarray(order)
        permuted = ac_monte_carlo(
            circuit, "VIN", frequencies, variation.take(permutation)
        )
        assert np.array_equal(permuted.samples, base.samples[permutation])
        assert np.array_equal(permuted.converged, base.converged[permutation])


class TestBatchedAC:
    def test_nominal_matches_scalar_plan(self):
        # Both sides run the same Schur kernel; only their
        # linearizations differ (the engine's stacked evaluation under
        # nominal variation against the plan's one-row Jacobian), so
        # they meet at the equivalence bar, not bitwise.
        cell = build_inverter(AlphaPowerFET(), input_waveform=DC(0.5))
        frequencies = np.logspace(6, 11, 13)
        batched = ac_monte_carlo(
            cell.circuit, "VIN", frequencies, FETVariation.nominal(1, 2)
        )
        single = ACPlan(cell.circuit, "VIN").sweep(frequencies)
        assert batched.n_converged == 1
        deviation = np.abs(
            batched.transfer(cell.output_node)[0] - single.transfer(cell.output_node)
        ).max()
        assert deviation < 1e-9

    def test_every_corner_matches_dense_loop(self):
        # Each corner's Schur sweep against the per-frequency oracle on
        # that corner's own linearization.
        from repro.circuit.sweep import CircuitMonteCarlo

        circuit, variation, base, frequencies = _batched_reference()
        engine = CircuitMonteCarlo(circuit)
        corners = engine.run(variation)
        jacobians = engine.small_signal_jacobians(corners.x, variation)
        rhs = np.zeros(engine.plan.size)
        rhs[circuit.source("VIN").branch_index] = 1.0
        assert base.converged.all()
        for i in range(base.n_instances):
            reference = dense_frequency_loop(
                jacobians[i], engine.plan.capacitance_stamp(), rhs, frequencies
            )
            error = np.abs(base.samples[i] - reference).max()
            assert error / np.abs(reference).max() < 1e-9

    def test_unknown_node_raises(self):
        _, _, base, _ = _batched_reference()
        with pytest.raises(CircuitError, match="unknown node"):
            base.transfer("nope")

    def test_unity_gain_nan_for_non_crossing_corners(self):
        # Corner 0 crosses unity falling; corner 1 never reaches it;
        # corner 2 never converged.  Only corner 0 reports a number.
        frequencies = np.logspace(6, 8, 3)
        samples = np.empty((3, 3, 1), dtype=complex)
        samples[0, :, 0] = [10.0, 0.1, 0.01]
        samples[1, :, 0] = [0.5, 0.4, 0.3]
        samples[2, :, 0] = np.nan
        result = BatchedACResult(
            layout=SolutionLayout(nodes={"out": 0}, branches={}),
            samples=samples,
            converged=np.array([True, True, False]),
            frequencies_hz=frequencies,
        )
        crossings = result.unity_gain_frequencies_hz("out")
        assert crossings[0] == pytest.approx(np.sqrt(1e6 * 1e7), rel=1e-12)
        assert np.isnan(crossings[1]) and np.isnan(crossings[2])

    def test_variation_length_mismatch_rejected(self):
        cell = build_inverter(AlphaPowerFET(), input_waveform=DC(0.5))
        with pytest.raises(ValueError):
            ac_monte_carlo(
                cell.circuit, "VIN", [1e6, 1e7], FETVariation.nominal(2, 3)
            )
