"""DC analyses against closed-form circuit theory and the sequential sweep."""

import numpy as np
import pytest

from scalar_oracle import sequential_sweep

from repro.circuit import dc
from repro.circuit.cells import build_inverter
from repro.circuit.continuation import ConvergenceError, structural_seed
from repro.circuit.dc import dc_sweep, operating_point
from repro.circuit.elements import VoltageSource
from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.solver import settle_many
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET
from repro.devices.reference import trigate_intel_22nm
from repro.experiments.cascade import build_inverter_chain
from repro.experiments.fig2 import non_saturating_fet, saturating_fet


def divider(r1=1000.0, r2=1000.0, v=2.0):
    c = Circuit("divider")
    c.add_voltage_source("V1", "a", "0", DC(v))
    c.add_resistor("R1", "a", "b", r1)
    c.add_resistor("R2", "b", "0", r2)
    return c


class TestOperatingPoint:
    def test_divider_voltage(self):
        op = operating_point(divider())
        assert op.voltage("b") == pytest.approx(1.0, abs=1e-6)

    def test_divider_unequal(self):
        op = operating_point(divider(r1=3000.0, r2=1000.0, v=4.0))
        assert op.voltage("b") == pytest.approx(1.0, abs=1e-6)

    def test_source_current_direction(self):
        op = operating_point(divider())
        # 2 V across 2 kOhm: 1 mA flows out of the source's + terminal,
        # so the branch current (p -> n inside the source) is -1 mA.
        assert op.source_current("V1") == pytest.approx(-1e-3, rel=1e-6)

    def test_ground_voltage_zero(self):
        op = operating_point(divider())
        assert op.voltage("0") == 0.0
        assert op.voltage("gnd") == 0.0

    def test_unknown_node_raises(self):
        op = operating_point(divider())
        with pytest.raises(CircuitError):
            op.voltage("nope")

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add_current_source("I1", "0", "x", DC(1e-3))  # pushes into x
        c.add_resistor("R1", "x", "0", 2000.0)
        op = operating_point(c)
        assert op.voltage("x") == pytest.approx(2.0, rel=1e-6)

    def test_two_sources_superposition(self):
        c = Circuit()
        c.add_voltage_source("V1", "a", "0", DC(1.0))
        c.add_voltage_source("V2", "b", "0", DC(2.0))
        c.add_resistor("R1", "a", "mid", 1000.0)
        c.add_resistor("R2", "b", "mid", 1000.0)
        c.add_resistor("R3", "mid", "0", 1000.0)
        op = operating_point(c)
        assert op.voltage("mid") == pytest.approx(1.0, abs=1e-6)

    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            operating_point(Circuit())

    def test_duplicate_element_name_rejected(self):
        c = Circuit()
        c.add_resistor("R1", "a", "0", 100.0)
        with pytest.raises(CircuitError):
            c.add_resistor("R1", "b", "0", 100.0)

    def test_capacitor_open_in_dc(self):
        c = divider()
        c.add_capacitor("C1", "b", "0", 1e-9)
        op = operating_point(c)
        assert op.voltage("b") == pytest.approx(1.0, abs=1e-6)

    def test_nonlinear_fet_operating_point(self):
        c = Circuit()
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VG", "g", "0", DC(0.8))
        c.add_resistor("RD", "vdd", "d", 10e3)
        c.add_fet("M1", "d", "g", "0", AlphaPowerFET())
        op = operating_point(c)
        fet = AlphaPowerFET()
        vd = op.voltage("d")
        # KCL at the drain: (1 - vd)/10k = I_fet(0.8, vd).
        assert (1.0 - vd) / 10e3 == pytest.approx(fet.current(0.8, vd), rel=1e-6)


class TestDCSweep:
    def test_sweep_tracks_divider(self):
        c = divider()
        values = np.linspace(0.0, 2.0, 11)
        sweep = dc_sweep(c, "V1", values)
        assert sweep.voltage("b") == pytest.approx(values / 2.0, abs=1e-6)

    def test_sweep_restores_waveform(self):
        c = divider()
        source = c.elements[0]
        original = source.waveform
        dc_sweep(c, "V1", [0.5, 1.0])
        assert source.waveform is original

    def test_missing_source(self):
        with pytest.raises(CircuitError):
            dc_sweep(divider(), "VX", [0.0, 1.0])

    def test_empty_sweep(self):
        with pytest.raises(CircuitError):
            dc_sweep(divider(), "V1", [])

    def test_sweep_currents_recorded(self):
        sweep = dc_sweep(divider(), "V1", [1.0, 2.0])
        assert sweep.source_current("V1")[1] == pytest.approx(-1e-3, rel=1e-5)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.0, np.nan, 1.0], "sweep value 1 is nan"),
            ([0.0, np.inf], "sweep value 1 is inf"),
            ([0.5, 1.0, -np.inf], "sweep value 2 is -inf"),
            ([[0.0, 1.0], [2.0, 3.0]], r"shape \(2, 2\): value 0 is \[0.0, 1.0\]"),
            (0.5, "got the scalar 0.5"),
            ([[0.0, 1.0], [2.0]], "must be numbers"),
        ],
    )
    def test_bad_values_rejected_before_any_numerics(self, monkeypatch, values, message):
        def no_numerics(*_args, **_kwargs):
            raise AssertionError("the sweep reached the solver")

        monkeypatch.setattr(dc, "settle_many", no_numerics)
        with pytest.raises(CircuitError, match=message):
            dc_sweep(divider(), "V1", values)


def _inverter(device, vdd=1.0):
    return build_inverter(device, vdd=vdd, load_capacitance_f=0.0).circuit


def _column_scaled_error(samples, reference):
    """Max |samples - reference| per unknown, over that unknown's max |reference|.

    An unknown that is zero throughout (the input source's current) is
    compared in absolute terms.
    """
    scale = np.abs(reference).max(axis=0)
    scale[scale == 0.0] = 1.0
    return np.max(np.abs(samples - reference) / scale)


def _pin_waveform(monkeypatch, source):
    """Make replacing ``source``'s waveform raise for the rest of the test."""

    def guarded(self, name, value):
        if self is source and name == "waveform":
            raise AssertionError("the sweep replaced the swept source's waveform")
        object.__setattr__(self, name, value)

    monkeypatch.setattr(VoltageSource, "__setattr__", guarded)


class TestStackedSweep:
    """Every sweep point is a row of one settled Newton stack."""

    def test_chain_falls_back_and_matches_the_sequential_sweep(self, monkeypatch):
        # A 5-stage chain swept through mid-rail: its gain is so high
        # that plain Newton from the structural seed misses some rows.
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=5)
        values = np.linspace(0.0, 1.0, 201)
        missed = []
        fallback = dc._continue_from_neighbours

        def spy(*args):
            missed.append(int(np.count_nonzero(~args[-1])))
            return fallback(*args)

        monkeypatch.setattr(dc, "_continue_from_neighbours", spy)
        sweep = dc_sweep(circuit, "VIN", values)
        assert len(missed) == 1 and missed[0] > 0
        reference = sequential_sweep(circuit, "VIN", values)
        assert _column_scaled_error(sweep.samples, reference) <= 1e-8

    @pytest.mark.parametrize(
        "device, vdd",
        [
            (saturating_fet(), 1.0),
            (non_saturating_fet(), 1.0),
            (trigate_intel_22nm(), 0.4),
            (trigate_intel_22nm(), 1.0),
        ],
    )
    def test_rows_match_the_sequential_sweep(self, device, vdd):
        circuit = _inverter(device, vdd)
        values = np.linspace(0.0, vdd, 161)
        sweep = dc_sweep(circuit, "VIN", values)
        reference = sequential_sweep(circuit, "VIN", values)
        assert _column_scaled_error(sweep.samples, reference) <= 1e-8

    def test_sparse_plan_rows_match_the_sequential_sweep(self, sparse_fet_ladder):
        circuit = sparse_fet_ladder()
        assert circuit.build_system()._plan.use_sparse
        values = np.linspace(0.0, 1.0, 21)
        sweep = dc_sweep(circuit, "VIN", values)
        reference = sequential_sweep(circuit, "VIN", values)
        assert _column_scaled_error(sweep.samples, reference) <= 1e-8

    @pytest.mark.parametrize(
        "device, vdd",
        [(saturating_fet(), 1.0), (trigate_intel_22nm(), 0.4), (trigate_intel_22nm(), 1.0)],
    )
    def test_answer_does_not_depend_on_the_seed(self, device, vdd):
        # Seed every point from its neighbour's solution, as a
        # continuation sweep would, instead of its structural seed.
        circuit = _inverter(device, vdd)
        values = np.linspace(0.0, vdd, 161)
        sweep = dc_sweep(circuit, "VIN", values)
        system = circuit.build_system()
        levels = np.column_stack((np.full(values.size, vdd), values))
        seeds = np.vstack(
            (structural_seed(system, levels=levels[0]), sweep.samples[:-1])
        )
        rows = settle_many(system._plan, seeds, source_levels=levels)
        assert rows.converged.all()
        assert _column_scaled_error(rows.x, sweep.samples) <= 1e-9

    def test_rows_are_bitwise_independent_of_the_other_values(self):
        # A closed-form device: a lone row would take the scalar stamp
        # path if per-row source levels did not keep it on the array path.
        circuit = _inverter(saturating_fet())
        values = np.linspace(0.0, 1.0, 41)
        full = dc_sweep(circuit, "VIN", values).samples
        reversed_ = dc_sweep(circuit, "VIN", values[::-1]).samples
        np.testing.assert_array_equal(reversed_[::-1], full)
        for pair in ([3, 20], [20, 21], [40, 0]):
            subset = dc_sweep(circuit, "VIN", values[pair]).samples
            np.testing.assert_array_equal(subset, full[pair])
        np.testing.assert_array_equal(
            dc_sweep(circuit, "VIN", values[20:21]).samples, full[20:21]
        )

    def test_unsolvable_sweep_names_the_failing_value(self):
        # A current source into a capacitor-only node has no DC solution:
        # every row misses plain Newton, so the lowest value walks the
        # ladder from its own seed, and fails.
        circuit = divider()
        circuit.add_current_source("I1", "0", "float", DC(1e-6))
        circuit.add_capacitor("C1", "float", "0", 1e-12)
        with pytest.raises(ConvergenceError, match="DC sweep failed at V1 = 0.5") as info:
            dc_sweep(circuit, "V1", [1.0, 0.5, 2.0])
        assert not info.value.report.converged

    def test_fallback_row_must_settle(self, monkeypatch):
        # A fallback row whose polish fails the residual test is an error,
        # recorded as the last attempt of its ladder report.
        real = dc.settle_many
        calls = []

        def unsettled(plan, x0, **kwargs):
            calls.append(len(x0))
            rows = real(plan, x0, **kwargs)
            return rows._replace(converged=np.zeros_like(rows.converged))

        monkeypatch.setattr(dc, "settle_many", unsettled)
        with pytest.raises(ConvergenceError, match="DC sweep failed at V1 = 1.0") as info:
            dc_sweep(divider(), "V1", [2.0, 1.0])
        assert calls == [2, 1]
        report = info.value.report
        assert not report.converged and report.attempts[-1].stage == "settle"

    @pytest.mark.parametrize("n_stages", [1, 5])
    def test_sweep_never_replaces_the_swept_waveform(self, monkeypatch, n_stages):
        # The 5-stage chain also walks the fallback path.
        circuit = build_inverter_chain(AlphaPowerFET(), n_stages=n_stages)
        source = circuit.source("VIN")
        original = source.waveform
        _pin_waveform(monkeypatch, source)
        sweep = dc_sweep(circuit, "VIN", np.linspace(0.0, 1.0, 201))
        assert source.waveform is original
        assert sweep.voltage("s1")[0] > 0.99
