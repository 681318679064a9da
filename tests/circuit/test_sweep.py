"""Batched sweep/Monte Carlo engine: correctness, determinism, invariance.

Three layers of guarantees:

* :class:`SweepPlan` — substreamed chunked execution is bitwise
  reproducible across chunk sizes, worker counts and serial vs. pooled
  runs;
* :class:`CircuitMonteCarlo` — the batched Newton solutions match
  per-instance scalar ``solve_dc`` references built from explicitly
  perturbed device models;
* determinism satellites — same seed means identical statistics no
  matter how the work is executed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuit.cells import build_inverter
from repro.circuit.solver import solve_dc
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    DEFAULT_SUBSTREAM_BLOCK,
    ExecutionPolicy,
    FETVariation,
    SweepPlan,
    ensure_seed,
    perturbed_circuit,
)
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC
from repro.devices.base import FETModel, PType
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import STAGE_LOAD_F, build_inverter_chain
from scalar_oracle import dc_scalar_reference


# -- pool-safe kernels (module level so ProcessPoolExecutor can pickle) -------

def _square_kernel(value, rng, payload):
    return value * value


def _draw_kernel(value, rng, payload):
    return float(rng.normal())


def _block_draw_kernel(params_block, rng, payload):
    return list(rng.normal(size=len(params_block)))


class _ScaledShiftedFET(FETModel):
    """Reference perturbation: scale * I(vgs - shift, vds), built explicitly."""

    def __init__(self, base, scale, shift):
        self.base = base
        self.scale = scale
        self.shift = shift

    def current(self, vgs, vds):
        return self.scale * self.base.current(vgs - self.shift, vds)

    def currents(self, vgs_values, vds_values):
        return self.scale * self.base.currents(
            np.asarray(vgs_values, dtype=float) - self.shift, vds_values
        )


def _chain(n_stages=2, vin=0.0):
    return build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=DC(vin)
    )


def _reference_chain(engine, variation, instance, n_stages=2, vin=0.0):
    """The same chain rebuilt with explicitly perturbed scalar devices."""
    columns = {name: j for j, name in enumerate(engine.fet_names)}
    base = AlphaPowerFET()
    circuit = Circuit("reference")
    circuit.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    circuit.add_voltage_source("VIN", "s0", "0", DC(vin))
    for stage in range(n_stages):
        node_in, node_out = f"s{stage}", f"s{stage + 1}"
        jp, jn = columns[f"MP{stage}"], columns[f"MN{stage}"]
        circuit.add_fet(
            f"MP{stage}", node_out, node_in, "vdd",
            PType(_ScaledShiftedFET(
                base,
                variation.drive_scale[instance, jp],
                variation.vth_shift_v[instance, jp],
            )),
        )
        circuit.add_fet(
            f"MN{stage}", node_out, node_in, "0",
            _ScaledShiftedFET(
                base,
                variation.drive_scale[instance, jn],
                variation.vth_shift_v[instance, jn],
            ),
        )
        circuit.add_capacitor(f"C{stage}", node_out, "0", STAGE_LOAD_F)
    return circuit


@pytest.fixture(scope="module")
def engine():
    return CircuitMonteCarlo(_chain())


@pytest.fixture(scope="module")
def variation(engine):
    return FETVariation.sample(
        64, len(engine.fet_names), seed=123, drive_sigma=0.2, vth_sigma_v=0.02
    )


class TestSweepPlan:
    def test_preserves_input_order(self):
        results = SweepPlan(_square_kernel).run([3, 1, 2])
        assert results == [9, 1, 4]

    def test_empty_params(self):
        assert SweepPlan(_square_kernel).run([]) == []

    def test_seeded_runs_reproduce(self):
        plan = SweepPlan(_draw_kernel)
        a = plan.run(range(10), seed=5)
        b = plan.run(range(10), seed=5)
        c = plan.run(range(10), seed=6)
        assert a == b
        assert a != c

    def test_per_instance_streams_independent_of_chunking(self):
        plan = SweepPlan(_draw_kernel)
        whole = plan.run(range(20), seed=9)
        chunked = plan.run(range(20), seed=9, policy=ExecutionPolicy(chunk_size=3))
        assert whole == chunked

    def test_vectorized_block_draws_invariant_to_chunk_size(self):
        plan = SweepPlan(_block_draw_kernel, vectorized=True, substream_block=8)
        whole = plan.run(range(50), seed=1)
        for chunk_size in (8, 16, 21, 64):
            policy = ExecutionPolicy(chunk_size=chunk_size)
            assert plan.run(range(50), seed=1, policy=policy) == whole

    def test_vectorized_pool_matches_serial(self):
        plan = SweepPlan(_block_draw_kernel, vectorized=True, substream_block=8)
        serial = plan.run(range(40), seed=2, policy=ExecutionPolicy(chunk_size=8))
        pooled = plan.run(
            range(40), seed=2, policy=ExecutionPolicy(chunk_size=8, workers=2)
        )
        assert serial == pooled

    def test_scalar_pool_matches_serial(self):
        plan = SweepPlan(_square_kernel)
        assert plan.run(range(9), policy=ExecutionPolicy(chunk_size=2, workers=2)) == [
            v * v for v in range(9)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(_square_kernel, substream_block=0)
        with pytest.raises(ValueError):
            SweepPlan(_square_kernel).run([1], policy=ExecutionPolicy(chunk_size=0))

    def test_ensure_seed_passthrough_and_entropy(self):
        assert ensure_seed(17) == 17
        assert ensure_seed(None) != ensure_seed(None)


class TestFETVariation:
    def test_sample_shapes_and_moments(self):
        var = FETVariation.sample(4000, 3, seed=0, drive_sigma=0.2, vth_sigma_v=0.05)
        assert var.drive_scale.shape == (4000, 3)
        assert var.drive_scale.mean() == pytest.approx(1.0, abs=0.02)
        assert np.all(var.drive_scale > 0.0)
        assert var.vth_shift_v.std() == pytest.approx(0.05, rel=0.1)

    def test_zero_sigmas_are_exact(self):
        var = FETVariation.sample(8, 2, seed=0, drive_sigma=0.0, vth_sigma_v=0.0)
        assert np.all(var.drive_scale == 1.0)
        assert np.all(var.vth_shift_v == 0.0)

    def test_draws_depend_only_on_position(self):
        # Within the first substream block, and across a block boundary;
        # the drive scales hold with threshold shifts drawn too.
        block = DEFAULT_SUBSTREAM_BLOCK
        for short, long in ((40, 50), (block + 44, 2 * block + 8)):
            for vth_sigma_v in (0.0, 0.02):
                kwargs = dict(seed=3, drive_sigma=0.1, vth_sigma_v=vth_sigma_v)
                a = FETVariation.sample(short, 2, **kwargs)
                b = FETVariation.sample(long, 2, **kwargs)
                assert np.array_equal(a.drive_scale, b.drive_scale[:short])

    def test_take_and_nominal(self):
        var = FETVariation.sample(10, 2, seed=0)
        sub = var.take([3, 1])
        assert np.array_equal(sub.drive_scale[0], var.drive_scale[3])
        nominal = FETVariation.nominal(5, 4)
        assert nominal.n_instances == 5 and nominal.n_fets == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            FETVariation(drive_scale=np.ones((2, 3)), vth_shift_v=np.ones((3, 2)))
        with pytest.raises(ValueError):
            FETVariation.sample(0, 1, seed=0)
        with pytest.raises(ValueError):
            FETVariation.sample(1, 1, seed=0, drive_sigma=-0.1)


class TestCircuitMonteCarlo:
    def test_zero_instances_returns_wellformed_empty(self, engine):
        result = engine.run(FETVariation.nominal(0, len(engine.fet_names)))
        assert result.n_instances == 0
        assert result.x.shape == (0, engine.plan.size)
        assert result.converged.shape == (0,)
        assert result.converged.dtype == bool

    def test_nominal_variation_reproduces_scalar_solve(self, engine):
        result = engine.run(n_instances=3)
        assert result.converged.all()
        reference = solve_dc(_chain().build_system())
        for i in range(3):
            assert result.x[i] == pytest.approx(reference, abs=1e-9)

    def test_perturbed_instances_match_scalar_references(self, engine, variation):
        result = engine.run(variation)
        assert result.converged.all()
        for instance in (0, 17, 63):
            circuit = _reference_chain(engine, variation, instance)
            system = circuit.build_system()
            x_ref = solve_dc(system)
            for node in ("s1", "s2"):
                assert result.voltage(node)[instance] == pytest.approx(
                    x_ref[system.node_index(node)], abs=1e-8
                )

    def test_serial_loop_equals_batched(self, engine, variation):
        batched = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        looped = engine.run(variation, policy=ExecutionPolicy(chunk_size=1))
        assert np.allclose(batched.x, looped.x, atol=1e-10)
        assert np.array_equal(batched.converged, looped.converged)

    def test_chunk_size_invariance(self, engine, variation):
        reference = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        for chunk_size in (7, 13, 32):
            result = engine.run(
                variation, policy=ExecutionPolicy(chunk_size=chunk_size)
            )
            assert np.allclose(reference.x, result.x, atol=1e-10)

    def test_instance_order_invariance(self, engine, variation):
        reference = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        permutation = np.random.default_rng(0).permutation(variation.n_instances)
        permuted = engine.run(
            variation.take(permutation), policy=ExecutionPolicy(chunk_size=64)
        )
        assert np.allclose(permuted.x, reference.x[permutation], atol=1e-10)

    def test_process_pool_matches_serial(self, engine, variation):
        serial = engine.run(variation, policy=ExecutionPolicy(chunk_size=32))
        pooled = engine.run(variation, policy=ExecutionPolicy(chunk_size=32, workers=2))
        assert np.allclose(serial.x, pooled.x, atol=1e-10)
        assert np.array_equal(serial.converged, pooled.converged)

    def test_statistics_and_accessors(self, engine, variation):
        result = engine.run(variation)
        stats = result.statistics("s2")
        assert stats.n_instances == variation.n_instances
        assert stats.n_converged == result.n_converged
        assert stats.minimum <= stats.mean <= stats.maximum
        assert result.voltage("0") == pytest.approx(np.zeros(variation.n_instances))
        assert result.source_current("VDD").shape == (variation.n_instances,)
        with pytest.raises(KeyError):
            result.voltage("nope")
        with pytest.raises(KeyError):
            result.source_current("nope")

    def test_vth_shift_moves_the_output(self):
        cell = build_inverter(AlphaPowerFET(), input_waveform=DC(0.45))
        inverter = CircuitMonteCarlo(cell.circuit)
        nominal = inverter.run(n_instances=1)
        moved = inverter.run(
            FETVariation(
                drive_scale=np.ones((1, 2)), vth_shift_v=np.full((1, 2), 0.08)
            )
        )
        assert moved.converged.all() and nominal.converged.all()
        assert abs(moved.voltage("out")[0] - nominal.voltage("out")[0]) > 0.01

    def test_rejects_fetless_and_mismatched_input(self):
        circuit = Circuit("rc")
        circuit.add_voltage_source("V1", "a", "0", DC(1.0))
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "0", 1e3)
        with pytest.raises(ValueError):
            CircuitMonteCarlo(circuit)
        engine = CircuitMonteCarlo(_chain())
        with pytest.raises(ValueError):
            engine.run(FETVariation.nominal(2, 7))
        with pytest.raises(ValueError):
            engine.run()

    @pytest.mark.parametrize(
        "column, value",
        [("drive_scale", np.nan), ("drive_scale", np.inf), ("drive_scale", -0.5),
         ("vth_shift_v", np.nan), ("vth_shift_v", -np.inf)],
    )
    def test_rejects_bad_variation_values(self, column, value):
        from repro.circuit.sweep import CircuitTransientMC

        circuit = _chain()
        engine = CircuitMonteCarlo(circuit)
        variation = FETVariation.nominal(3, len(engine.fet_names))
        getattr(variation, column)[2, 1] = value
        name = engine.fet_names[1]
        message = f"instance 2, FET '{name}'"
        with pytest.raises(ValueError, match=message):
            engine.run(variation)
        with pytest.raises(ValueError, match=message):
            engine.small_signal_jacobians(np.zeros((3, engine.plan.size)), variation)
        with pytest.raises(ValueError, match=message):
            CircuitTransientMC(circuit).run(variation, 1e-10, 1e-11)

    def test_sparse_plan_batches_silently(self, caplog, sparse_fet_ladder):
        import logging

        from repro.circuit.solver import solve_dc
        from repro.circuit.sweep import perturbed_circuit

        circuit = sparse_fet_ladder()
        engine = CircuitMonteCarlo(circuit)
        assert engine.plan.use_sparse
        variation = FETVariation.sample(2, 1, seed=3, drive_sigma=0.2)
        with caplog.at_level(logging.WARNING, logger="repro.circuit.sweep"):
            result = engine.run(variation)
        # No per-instance fallback, no warning: sparse plans batch.
        assert not caplog.records
        assert result.converged.all()
        # The expensive symbolic analysis ran once for the whole batch.
        assert engine.plan.sparse_schedule.n_symbolic == 1
        # The ladder is deliberately high-impedance (RT = 1e6), so the
        # solver's 1e-10 residual criterion allows ~1e-7 in voltage
        # between two independently-converged iterates; the tight 1e-9
        # equivalence contract is asserted on the well-conditioned
        # sparse inverter chain in TestSparseBatchedNewton.
        for i in range(2):
            reference = solve_dc(
                perturbed_circuit(circuit, variation, i).build_system()
            )
            assert np.abs(result.x[i] - reference).max() < 1e-7


@pytest.fixture(scope="module")
def sparse_engine(sparse_fet_ladder):
    return CircuitMonteCarlo(sparse_fet_ladder())


@pytest.fixture(scope="module")
def sparse_chain_engine():
    # 130 stages -> 134 unknowns: a *well-conditioned* circuit above
    # SPARSE_THRESHOLD, for the tight batched-vs-scalar equivalence.
    return CircuitMonteCarlo(_chain(n_stages=130))


@pytest.fixture(scope="module")
def sparse_variation(sparse_engine):
    return FETVariation.sample(
        12,
        len(sparse_engine.fet_names),
        seed=77,
        drive_sigma=0.2,
        vth_sigma_v=0.02,
    )


class TestSparseBatchedNewton:
    """Sparse plans batch like dense ones: scalar-equivalent results,
    bitwise invariant to chunk size, instance order and pooling."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_batched_matches_scalar_loop(self, sparse_chain_engine, seed):
        variation = FETVariation.sample(
            3,
            len(sparse_chain_engine.fet_names),
            seed=seed,
            drive_sigma=0.15,
            vth_sigma_v=0.01,
        )
        batched = sparse_chain_engine.run(variation)
        reference = dc_scalar_reference(sparse_chain_engine, variation)
        assert batched.converged.all()
        assert reference.converged.all()
        assert np.abs(batched.x - reference.x).max() < 1e-9

    @given(chunk_size=st.integers(min_value=1, max_value=12))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_chunk_size_bitwise_invariant(
        self, sparse_engine, sparse_variation, chunk_size
    ):
        reference = sparse_engine.run(
            sparse_variation, policy=ExecutionPolicy(chunk_size=12)
        )
        result = sparse_engine.run(
            sparse_variation, policy=ExecutionPolicy(chunk_size=chunk_size)
        )
        assert np.array_equal(reference.x, result.x)
        assert np.array_equal(reference.converged, result.converged)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_instance_order_bitwise_invariant(
        self, sparse_engine, sparse_variation, seed
    ):
        permutation = np.random.default_rng(seed).permutation(
            sparse_variation.n_instances
        )
        reference = sparse_engine.run(sparse_variation)
        permuted = sparse_engine.run(sparse_variation.take(permutation))
        assert np.array_equal(permuted.x, reference.x[permutation])

    def test_process_pool_bitwise_matches_serial(
        self, sparse_engine, sparse_variation
    ):
        serial = sparse_engine.run(
            sparse_variation, policy=ExecutionPolicy(chunk_size=6)
        )
        pooled = sparse_engine.run(
            sparse_variation, policy=ExecutionPolicy(chunk_size=6, workers=2)
        )
        assert np.array_equal(serial.x, pooled.x)
        assert np.array_equal(serial.converged, pooled.converged)


class TestSweepInvarianceProperties:
    """Hypothesis: execution shape never changes sweep results."""

    @given(chunk_size=st.integers(min_value=1, max_value=40))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_chunk_size_never_changes_solutions(self, engine, variation, chunk_size):
        reference = engine.run(
            variation, policy=ExecutionPolicy(chunk_size=variation.n_instances)
        )
        result = engine.run(variation, policy=ExecutionPolicy(chunk_size=chunk_size))
        assert np.allclose(reference.x, result.x, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_permutation_permutes_results(self, engine, variation, seed):
        permutation = np.random.default_rng(seed).permutation(variation.n_instances)
        reference = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        permuted = engine.run(
            variation.take(permutation), policy=ExecutionPolicy(chunk_size=64)
        )
        assert np.allclose(permuted.x, reference.x[permutation], atol=1e-10)

    @given(
        block=st.integers(min_value=1, max_value=17),
        chunk=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=15, deadline=None)
    def test_vectorized_rng_tied_to_block_not_chunk(self, block, chunk):
        plan = SweepPlan(_block_draw_kernel, vectorized=True, substream_block=block)
        whole = plan.run(range(37), seed=11)
        policy = ExecutionPolicy(chunk_size=chunk)
        assert plan.run(range(37), seed=11, policy=policy) == whole


class TestEngineDeterminism:
    """Satellite: same seed => identical statistics however executed."""

    def test_monte_carlo_statistics_identical_serial_vs_pool(self, engine, variation):
        serial = engine.run(variation, policy=ExecutionPolicy(chunk_size=16))
        pooled = engine.run(variation, policy=ExecutionPolicy(chunk_size=16, workers=2))
        for node in ("s1", "s2"):
            assert serial.statistics(node) == pooled.statistics(node)

    def test_monte_carlo_statistics_identical_across_chunks(self, engine, variation):
        stats = [
            engine.run(variation, policy=ExecutionPolicy(chunk_size=c))
            .statistics("s2")
            .mean
            for c in (1, 9, 64)
        ]
        assert stats[0] == pytest.approx(stats[1], abs=1e-12)
        assert stats[1] == pytest.approx(stats[2], abs=1e-12)


class TestCurrentSourceBatch:
    """Batched stacks stamp shared current sources into *every* row.

    Regression net for a ``np.add.at`` partial-broadcast hazard: with a
    shared ``(n_isrc,)`` value array against ``(m, n_isrc)`` per-row
    indices, rows after the first silently read out-of-bounds memory.
    """

    def _biased_circuit(self):
        c = Circuit("isrc")
        c.add_voltage_source("VDD", "vdd", "0", DC(1.0))
        c.add_voltage_source("VIN", "in", "0", DC(0.4))
        fet = AlphaPowerFET()
        c.add_fet("MP", "out", "in", "vdd", PType(fet))
        c.add_fet("MN", "out", "in", "0", fet)
        c.add_current_source("I1", "vdd", "out", DC(1e-5))
        c.add_current_source("I2", "out", "0", DC(2e-5))
        return c

    def test_identical_instances_share_one_solution(self):
        circuit = self._biased_circuit()
        engine = CircuitMonteCarlo(circuit)
        nominal = FETVariation.nominal(5, len(engine.fet_names))
        result = engine.run(nominal)
        assert result.converged.all()
        scalar = solve_dc(circuit.build_system())
        for i in range(nominal.n_instances):
            np.testing.assert_allclose(result.x[i], scalar, atol=1e-8)

    def test_residual_rows_match_scalar_evaluation(self, sparse_fet_ladder):
        """``StampPlan.evaluate_many`` rows equal the reference evaluator.

        Each row carries its own variation and is checked against
        ``evaluate_dense`` on that instance's perturbed circuit — dense
        and sparse plans, the ``gmin_ref`` anchor, and a companion model
        whose previous solution and history are shared by every row or
        given one row per instance.
        """
        rng = np.random.default_rng(3)
        m = 4

        def shared_companion(plan):
            previous = rng.normal(scale=0.5, size=plan.size)
            state = {name: rng.normal() * 1e-6 for name in plan.cap_names}
            kwargs = dict(time_s=2e-11, dt_s=1e-12, previous_x=previous, state=state)
            return kwargs, lambda i: kwargs

        def per_row_companion(plan):
            previous = rng.normal(scale=0.5, size=(m, plan.size))
            state = rng.normal(size=(m, len(plan.cap_names))) * 1e-6
            kwargs = dict(time_s=2e-11, dt_s=1e-12, previous_x=previous, state=state)
            return kwargs, lambda i: dict(
                kwargs,
                previous_x=previous[i],
                state=dict(zip(plan.cap_names, state[i])),
            )

        def anchored_gmin(plan):
            kwargs = dict(
                gmin=1e-3,
                gmin_ref=rng.normal(size=plan.size),
                source_scale=0.7,
            )
            return kwargs, lambda i: kwargs

        cases = [
            (self._biased_circuit(), lambda plan: ({}, lambda i: {})),
            (self._biased_circuit(), anchored_gmin),
            (_chain(), shared_companion),
            (_chain(), per_row_companion),
            (sparse_fet_ladder(load_f=1e-15), per_row_companion),
            (sparse_fet_ladder(load_f=1e-15), anchored_gmin),
        ]
        for circuit, make_kwargs in cases:
            engine = CircuitMonteCarlo(circuit)
            plan = engine.plan
            variation = FETVariation.sample(
                m, len(engine.fet_names), seed=5, drive_sigma=0.2, vth_sigma_v=0.05
            )
            xs = rng.normal(scale=0.5, size=(m, plan.size))
            kwargs, row_kwargs = make_kwargs(plan)
            residuals, jacobians = plan.evaluate_many(
                xs, variation=variation, **kwargs
            )
            for i in range(m):
                system = perturbed_circuit(circuit, variation, i).build_system()
                res, jac = system.evaluate_dense(xs[i], **row_kwargs(i))
                jac_i = (
                    plan.sparse_schedule.matrix(jacobians[i]).toarray()
                    if plan.use_sparse
                    else jacobians[i]
                )
                np.testing.assert_allclose(residuals[i], res, atol=1e-12)
                np.testing.assert_allclose(jac_i, jac, atol=1e-12)
