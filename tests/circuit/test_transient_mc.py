"""Batched transient Monte Carlo engine vs the per-instance scalar loop.

The transient analogue of ``test_assembly_equivalence.py``: for random
inverter-chain circuits and :class:`FETVariation` draws, every
:class:`CircuitTransientMC` waveform must match the scalar
``transient()`` loop over explicitly perturbed circuits to 1e-9 at
every sample (hypothesis-backed), and the engine's results must be
bitwise invariant to chunk size, instance order, and serial vs.
process-pool execution.  The per-instance scalar rescue and the
sparse batched path are exercised directly.
"""

import importlib
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.continuation import ConvergenceReport, LadderRows
from repro.circuit.netlist import CircuitError
from repro.circuit.solver import NewtonRows, newton_many
from repro.circuit.sweep import (
    CircuitTransientMC,
    ExecutionPolicy,
    FETVariation,
    perturbed_circuit,
)
from repro.circuit.transient import transient, transient_samples
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from scalar_oracle import transient_scalar_reference

# The module, not the ``transient`` function ``repro.circuit`` re-exports.
transient_module = importlib.import_module("repro.circuit.transient")

WAVEFORM_ATOL = 1e-9

T_STOP = 0.3e-9
DT = 1e-11


def _stimulus(t_stop=T_STOP):
    return Pulse(
        v1=0.0, v2=1.0, delay_s=0.1 * t_stop, rise_s=10e-12, fall_s=10e-12,
        width_s=0.45 * t_stop, period_s=0.0,
    )


def _chain_engine(n_stages=2):
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=_stimulus()
    )
    return CircuitTransientMC(chain)


@pytest.fixture(scope="module")
def engine():
    return _chain_engine()


@pytest.fixture(scope="module")
def variation(engine):
    return FETVariation.sample(
        24, len(engine.fet_names), seed=123, drive_sigma=0.2, vth_sigma_v=0.02
    )


@pytest.fixture(scope="module")
def reference(engine, variation):
    return engine.run(variation, T_STOP, DT)


class TestEmptyWork:
    def test_zero_instances_returns_wellformed_empty(self, engine):
        result = engine.run(FETVariation.nominal(0, len(engine.fet_names)), T_STOP, DT)
        assert result.n_instances == 0
        # The empty result keeps the run's real sample grid so shape-
        # dependent consumers (time axis, concatenation) still work.
        assert result.n_samples == int(round(T_STOP / DT)) + 1
        assert result.samples.shape[0] == 0
        assert result.converged.shape == (0,)
        assert result.fallback.shape == (0,)
        assert result.time_s.shape == (result.n_samples,)


class TestScalarEquivalence:
    """Waveforms match the per-instance scalar transient() loop."""

    def test_trapezoidal_matches_scalar_loop(self, engine, variation, reference):
        scalar = transient_scalar_reference(engine, variation, T_STOP, DT)
        assert reference.converged.all()
        assert np.abs(reference.samples - scalar).max() < WAVEFORM_ATOL

    def test_backward_euler_matches_scalar_loop(self, engine, variation):
        result = engine.run(variation, T_STOP, DT, integrator="backward-euler")
        scalar = transient_scalar_reference(
            engine, variation, T_STOP, DT, integrator="backward-euler"
        )
        assert result.converged.all()
        assert np.abs(result.samples - scalar).max() < WAVEFORM_ATOL

    def test_nominal_variation_matches_unperturbed_transient(self, engine):
        result = engine.run(n_instances=2, t_stop_s=T_STOP, dt_s=DT)
        scalar = transient(engine.circuit, T_STOP, DT)
        for node in ("s1", "s2"):
            waves = result.voltage(node)
            assert np.abs(waves - scalar.voltage(node)).max() < WAVEFORM_ATOL

    @given(
        n_stages=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        drive_sigma=st.floats(min_value=0.0, max_value=0.3),
        vth_sigma_v=st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_chains_and_draws_match_scalar(
        self, n_stages, seed, drive_sigma, vth_sigma_v
    ):
        engine = _chain_engine(n_stages)
        variation = FETVariation.sample(
            3,
            len(engine.fet_names),
            seed=seed,
            drive_sigma=drive_sigma,
            vth_sigma_v=vth_sigma_v,
        )
        result = engine.run(variation, T_STOP, DT)
        scalar = transient_scalar_reference(engine, variation, T_STOP, DT)
        assert result.converged.all()
        assert np.abs(result.samples - scalar).max() < WAVEFORM_ATOL


class TestBitwiseInvariance:
    """Execution shape never changes a single bit of any waveform."""

    def test_chunk_size_bitwise_invariant(self, engine, variation, reference):
        for chunk_size in (1, 7, 24):
            result = engine.run(
                variation, T_STOP, DT, policy=ExecutionPolicy(chunk_size=chunk_size)
            )
            assert np.array_equal(result.samples, reference.samples)
            assert np.array_equal(result.converged, reference.converged)

    def test_instance_order_bitwise_invariant(self, engine, variation, reference):
        permutation = np.random.default_rng(0).permutation(variation.n_instances)
        permuted = engine.run(variation.take(permutation), T_STOP, DT)
        assert np.array_equal(permuted.samples, reference.samples[permutation])

    def test_process_pool_bitwise_invariant(self, engine, variation, reference):
        pooled = engine.run(
            variation, T_STOP, DT, policy=ExecutionPolicy(chunk_size=8, workers=2)
        )
        assert np.array_equal(pooled.samples, reference.samples)
        assert np.array_equal(pooled.converged, reference.converged)

    @given(chunk_size=st.integers(min_value=1, max_value=30))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_chunk_size_is_bitwise_identical(
        self, engine, variation, reference, chunk_size
    ):
        result = engine.run(
            variation, T_STOP, DT, policy=ExecutionPolicy(chunk_size=chunk_size)
        )
        assert np.array_equal(result.samples, reference.samples)


@pytest.fixture
def starved_steps(monkeypatch):
    """Cap the step loop's Newton at zero iterations (t=0 and rescues untouched)."""

    def starved(plan, x0, **kwargs):
        return newton_many(plan, x0, **{**kwargs, "max_iterations": 0})

    monkeypatch.setattr(transient_module, "newton_many", starved)


class TestScalarFallback:
    """Steps that defeat batched Newton are rescued per instance."""

    def test_fallback_engages_on_starved_newton(
        self, engine, variation, reference, starved_steps
    ):
        # Zero Newton iterations per step starve the lockstep solve, so
        # every step that moves must be rescued through the scalar
        # continuation path — and still reproduce the batched waveforms,
        # since the rescue anchors at the same previous solutions.
        result = engine.run(variation, T_STOP, DT)
        assert result.fallback.all()
        assert result.n_fallback == variation.n_instances
        assert result.converged.all()
        assert np.abs(result.samples - reference.samples).max() < WAVEFORM_ATOL
        scalar = transient_scalar_reference(engine, variation, T_STOP, DT)
        assert np.abs(result.samples - scalar).max() < WAVEFORM_ATOL

    def test_fallback_only_takes_failing_instances(self, engine, variation):
        result = engine.run(variation, T_STOP, DT)
        assert result.n_fallback == 0

    def test_failed_scalar_rescue_reports_unconverged(
        self, engine, variation, monkeypatch, starved_steps
    ):
        def no_rescue(plan, x0, **eval_kwargs):
            m = x0.shape[0]
            failed = NewtonRows(
                x0, np.zeros(m, dtype=bool), np.zeros(m, dtype=int), np.full(m, np.inf)
            )
            reports = {k: ConvergenceReport() for k in range(m)}  # converged=False
            return LadderRows(x0, failed.converged, failed, reports)

        monkeypatch.setattr(transient_module, "ladder_many", no_rescue)
        result = engine.run(variation.take([0, 1]), T_STOP, DT)
        assert result.fallback.all()
        assert not result.converged.any()
        assert np.isnan(result.samples).all()
        with pytest.raises(ValueError):
            result.statistics("s1")


class TestSparseBatched:
    def test_sparse_plan_batches_silently(self, caplog, sparse_fet_ladder):
        engine = CircuitTransientMC(
            sparse_fet_ladder(input_waveform=_stimulus(), load_f=1e-15)
        )
        assert engine.plan.use_sparse
        variation = FETVariation.sample(
            2, 1, seed=5, drive_sigma=0.2, vth_sigma_v=0.02
        )
        with caplog.at_level(logging.WARNING, logger="repro.circuit.sweep"):
            result = engine.run(variation, 5e-11, 1e-11)
        # Sparse plans march through the batched lockstep path: no
        # warning, no per-instance fallback.
        assert not caplog.records
        assert result.converged.all()
        assert not result.fallback.any()
        # One symbolic analysis served the whole march.
        assert engine.plan.sparse_schedule.n_symbolic == 1

        # Waveforms match the per-instance scalar loop.
        for i in range(2):
            system = perturbed_circuit(engine.circuit, variation, i).build_system()
            scalar = transient_samples(system, 5e-11, 1e-11)
            assert np.abs(result.samples[i] - scalar).max() < WAVEFORM_ATOL

    def test_sparse_chunk_and_order_bitwise_invariant(self, sparse_fet_ladder):
        engine = CircuitTransientMC(
            sparse_fet_ladder(input_waveform=_stimulus(), load_f=1e-15)
        )
        variation = FETVariation.sample(
            6, 1, seed=9, drive_sigma=0.2, vth_sigma_v=0.02
        )
        reference = engine.run(variation, 5e-11, 1e-11)
        chunked = engine.run(
            variation, 5e-11, 1e-11, policy=ExecutionPolicy(chunk_size=2)
        )
        assert np.array_equal(chunked.samples, reference.samples)
        permutation = np.random.default_rng(1).permutation(6)
        permuted = engine.run(variation.take(permutation), 5e-11, 1e-11)
        assert np.array_equal(permuted.samples, reference.samples[permutation])


class TestResultAccessors:
    def test_shapes_times_and_accessors(self, engine, variation, reference):
        n_samples = int(round(T_STOP / DT)) + 1
        assert reference.samples.shape == (
            variation.n_instances, n_samples, engine.plan.size
        )
        assert reference.n_instances == variation.n_instances
        assert reference.n_samples == n_samples
        assert reference.time_s[1] - reference.time_s[0] == pytest.approx(DT)
        assert reference.voltage("s1").shape == (variation.n_instances, n_samples)
        assert np.array_equal(
            reference.voltage("0"), np.zeros((variation.n_instances, n_samples))
        )
        assert reference.source_current("VDD").shape == (
            variation.n_instances, n_samples
        )
        with pytest.raises(KeyError):
            reference.voltage("nope")
        with pytest.raises(KeyError):
            reference.source_current("nope")

    def test_instance_waveforms_round_trip(self, engine, variation, reference):
        waves = reference.instance_waveforms(3)
        assert np.array_equal(waves.voltage("s2"), reference.voltage("s2")[3])
        assert np.array_equal(
            waves.source_current("VDD"), reference.source_current("VDD")[3]
        )

    def test_statistics(self, engine, variation, reference):
        stats = reference.statistics("s2")
        assert stats.n_instances == variation.n_instances
        assert stats.n_converged == reference.n_converged
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            engine.run(n_instances=2)  # no grid
        with pytest.raises(CircuitError):
            engine.run(n_instances=2, t_stop_s=-1.0, dt_s=1e-12)
        with pytest.raises(CircuitError):
            engine.run(n_instances=2, t_stop_s=1e-9, dt_s=1e-12, integrator="euler")
        # t_stop must be a whole number of dt steps.
        for dt in (0.6e-9, 0.4e-9):
            with pytest.raises(CircuitError, match="whole number"):
                engine.run(n_instances=2, t_stop_s=1e-9, dt_s=dt)
        with pytest.raises(ValueError):
            engine.run(FETVariation.nominal(2, 7), 1e-10, 1e-11)
        with pytest.raises(ValueError):
            engine.run(t_stop_s=1e-10, dt_s=1e-11)  # neither variation nor count


class TestPerturbedCircuit:
    def test_preserves_layout_and_semantics(self, engine, variation):
        clone = perturbed_circuit(engine.circuit, variation, 0)
        assert clone.node_names == engine.circuit.node_names
        system = clone.build_system()
        assert system.size == engine.plan.size

    def test_rejects_mismatched_variation(self, engine):
        with pytest.raises(ValueError):
            perturbed_circuit(engine.circuit, FETVariation.nominal(1, 9), 0)
