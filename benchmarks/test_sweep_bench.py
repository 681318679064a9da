"""Bench SWEEP: batched Monte Carlo throughput vs the per-trial loop.

The perf baseline for the batched sweep engine
(:mod:`repro.circuit.sweep`): a 1000-instance Monte Carlo of a 5-stage
complementary inverter chain (drive-strength and threshold variation on
every FET), solved (a) as a per-trial Python loop — ``chunk_size=1``,
the pattern every variability/yield experiment used before the engine —
and (b) as one batched chunk, where each Newton iteration makes a
single ``linearize`` call across all instances and one batched LAPACK
solve.  Plus the array-statistics counterpart: the 10,000-device CNFET
array sampled device-by-device vs. in vectorised substream blocks.

The transient counterpart (``CircuitTransientMC``): a 256-instance
transient Monte Carlo of the same 5-stage chain, time-stepped in
lockstep vs. the per-instance scalar ``transient()`` loop over
explicitly perturbed circuits.  The batched waveforms are asserted
equal to the scalar path at 1e-9 (they are in fact bitwise identical),
bitwise invariant across chunk size / instance order / process pool,
and >= 5x faster than the loop.

The sparse counterpart: a 256-instance DC Monte Carlo of a 200-stage
chain (204 unknowns, above ``SPARSE_THRESHOLD``), solved through the
batched sparse plan — one symbolic analysis, per-instance numeric
refactorization of the stacked ``(m, nnz)`` CSR data — vs. the scalar
per-instance loop that used to be the silent fallback for every
over-threshold plan.  Solutions are asserted equal at 1e-9 and the
batched path >= 5x faster than the loop.

The compiled-AC counterpart (``ac_sweep``-tagged cases): a 240-point
frequency sweep of an inverter-chain linearization, solved by the
pre-compile per-frequency dense loop vs. the compiled plan — one QZ
(generalized Schur) reduction plus an all-frequency blocked triangular
backsubstitution below ``SPARSE_THRESHOLD``, per-frequency complex
numeric refactorization on the cached symbolic ordering above it.
Samples are asserted equal at 1e-9 and the compiled path >= 10x faster.

Reference numbers (container class of the engines' introduction):
1k-instance chain MC ~250 ms serial loop vs ~11 ms batched (~23x);
10k-device array ~65 ms loop vs ~6 ms vectorised (~11x); 256-instance
20-step transient MC ~15.6 s scalar loop vs ~0.24 s batched (~65x);
256-instance sparse 200-stage MC ~21 s scalar loop vs batched well
above the 5x bar; 240-point AC sweep ~64 ms loop vs ~3 ms compiled at
104 unknowns (~22x) and ~4.8 s loop vs ~0.34 s compiled at 604
unknowns (~14x).
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_rows

from repro.circuit.ac import ACPlan, dense_frequency_loop
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    CircuitTransientMC,
    ExecutionPolicy,
    FETVariation,
)
from repro.circuit.waveforms import DC, Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from repro.integration.variability import CNFETArrayModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "circuit"))
from scalar_oracle import dc_scalar_reference, transient_scalar_reference  # noqa: E402

N_INSTANCES = 1000
N_ARRAY_DEVICES = 10000
CHAIN_STAGES = 5
SEED = 20140314

# Transient MC case: 256 instances marched over a 20-step switching
# window (pulse edge inside), per the acceptance bar of the engine's PR.
N_TRANSIENT = 256
T_STOP = 0.2e-9
DT = 1e-11


@pytest.fixture(scope="module")
def engine():
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=CHAIN_STAGES, input_waveform=DC(0.0)
    )
    return CircuitMonteCarlo(chain)


@pytest.fixture(scope="module")
def variation(engine):
    return FETVariation.sample(
        N_INSTANCES,
        len(engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )


def test_monte_carlo_per_trial_loop(benchmark, engine, variation):
    """Baseline: one Newton solve per instance (``chunk_size=1``)."""
    result = benchmark(engine.run, variation, policy=ExecutionPolicy(chunk_size=1))
    print_rows(
        f"{N_INSTANCES}-instance chain MC — per-trial loop",
        [("mean run [ms]", benchmark.stats.stats.mean * 1e3),
         ("converged fraction", result.n_converged / result.n_instances)],
    )
    assert result.converged.all()


def test_monte_carlo_batched(benchmark, engine, variation):
    """The engine's batched path, one chunk for all 1000 instances."""
    result = benchmark(
        engine.run, variation, policy=ExecutionPolicy(chunk_size=N_INSTANCES)
    )
    print_rows(
        f"{N_INSTANCES}-instance chain MC — batched",
        [("mean run [ms]", benchmark.stats.stats.mean * 1e3),
         ("converged fraction", result.n_converged / result.n_instances)],
    )
    assert result.converged.all()

    # Seed-for-seed identical statistics vs the per-trial loop: the same
    # variation draws, and per-instance solutions equal to solver
    # tolerance regardless of batching.
    loop = engine.run(variation, policy=ExecutionPolicy(chunk_size=1))
    for node in (f"s{CHAIN_STAGES}", "s1"):
        batched_stats = result.statistics(node)
        loop_stats = loop.statistics(node)
        assert batched_stats.mean == pytest.approx(loop_stats.mean, abs=1e-12)
        assert batched_stats.std == pytest.approx(loop_stats.std, abs=1e-12)
    assert np.allclose(result.x, loop.x, atol=1e-10)


@pytest.fixture(scope="module")
def transient_engine():
    stimulus = Pulse(
        v1=0.0, v2=1.0, delay_s=0.02e-9, rise_s=10e-12, fall_s=10e-12,
        width_s=0.09e-9, period_s=0.0,
    )
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=CHAIN_STAGES, input_waveform=stimulus
    )
    return CircuitTransientMC(chain)


@pytest.fixture(scope="module")
def transient_variation(transient_engine):
    return FETVariation.sample(
        N_TRANSIENT,
        len(transient_engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )


# The scalar loop is expensive (~9 s): measure it once and share the
# (time, samples) pair between the loop and batched benchmark tests.
_transient_loop_cache: dict = {}


def _scalar_transient_loop(engine, variation):
    cached = _transient_loop_cache.get("loop")
    if cached is None:
        start = time.perf_counter()
        samples = transient_scalar_reference(engine, variation, T_STOP, DT)
        cached = (time.perf_counter() - start, samples)
        _transient_loop_cache["loop"] = cached
    return cached


def test_transient_mc_per_instance_loop(
    benchmark, transient_engine, transient_variation
):
    """Baseline: scalar transient() per explicitly perturbed instance."""
    samples = benchmark.pedantic(
        lambda: _scalar_transient_loop(transient_engine, transient_variation)[1],
        rounds=1,
        iterations=1,
    )
    print_rows(
        f"{N_TRANSIENT}-instance transient MC — per-instance loop",
        [("one run [ms]",
          _scalar_transient_loop(transient_engine, transient_variation)[0] * 1e3)],
    )
    assert samples.shape[0] == N_TRANSIENT


def test_transient_mc_batched(benchmark, transient_engine, transient_variation):
    """The lockstep engine: >= 5x over the loop, waveforms equal at 1e-9."""
    result = benchmark(
        transient_engine.run, transient_variation, T_STOP, DT
    )
    assert result.converged.all()
    assert result.n_fallback == 0

    loop_time, loop_samples = _scalar_transient_loop(
        transient_engine, transient_variation
    )
    batched_time = benchmark.stats.stats.mean
    speedup = loop_time / batched_time
    print_rows(
        f"{N_TRANSIENT}-instance transient MC — batched lockstep",
        [("mean run [ms]", batched_time * 1e3),
         ("loop run [ms]", loop_time * 1e3),
         ("speedup", speedup),
         ("max |batched - loop|", float(np.abs(result.samples - loop_samples).max()))],
    )
    # Acceptance bar: waveforms equal to the scalar path at 1e-9 and a
    # >= 5x speedup over the per-instance loop.
    assert np.abs(result.samples - loop_samples).max() < 1e-9
    assert speedup >= 5.0


def test_transient_mc_bitwise_invariance(transient_engine, transient_variation):
    """Chunk size, instance order and pooling never change a single bit."""
    reference = transient_engine.run(transient_variation, T_STOP, DT)
    chunked = transient_engine.run(
        transient_variation, T_STOP, DT, policy=ExecutionPolicy(chunk_size=37)
    )
    assert np.array_equal(reference.samples, chunked.samples)
    permutation = np.random.default_rng(0).permutation(N_TRANSIENT)
    permuted = transient_engine.run(
        transient_variation.take(permutation), T_STOP, DT
    )
    assert np.array_equal(permuted.samples, reference.samples[permutation])
    pooled = transient_engine.run(
        transient_variation,
        T_STOP,
        DT,
        policy=ExecutionPolicy(chunk_size=64, workers=2),
    )
    assert np.array_equal(pooled.samples, reference.samples)


# Sparse batched MC case: a chain deep enough that its plan crosses
# SPARSE_THRESHOLD (200 stages -> 204 unknowns), per the acceptance bar
# of the sparse-batching PR.
N_SPARSE = 256
SPARSE_STAGES = 200


@pytest.fixture(scope="module")
def sparse_engine():
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=SPARSE_STAGES, input_waveform=DC(0.0)
    )
    engine = CircuitMonteCarlo(chain)
    assert engine.plan.use_sparse
    return engine


@pytest.fixture(scope="module")
def sparse_variation(sparse_engine):
    return FETVariation.sample(
        N_SPARSE,
        len(sparse_engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )


# The scalar loop runs 256 robust DC solves (~20 s): measure once and
# share between the loop and batched benchmark tests.
_sparse_loop_cache: dict = {}


def _scalar_sparse_loop(engine, variation):
    cached = _sparse_loop_cache.get("loop")
    if cached is None:
        start = time.perf_counter()
        result = dc_scalar_reference(engine, variation)
        cached = (time.perf_counter() - start, result)
        _sparse_loop_cache["loop"] = cached
    return cached


def test_sparse_mc_per_instance_loop(benchmark, sparse_engine, sparse_variation):
    """Baseline: the old fallback — one scalar sparse solve per instance."""
    result = benchmark.pedantic(
        lambda: _scalar_sparse_loop(sparse_engine, sparse_variation)[1],
        rounds=1,
        iterations=1,
    )
    print_rows(
        f"{N_SPARSE}-instance {SPARSE_STAGES}-stage MC — per-instance loop",
        [("one run [ms]",
          _scalar_sparse_loop(sparse_engine, sparse_variation)[0] * 1e3)],
    )
    assert result.converged.all()


def test_sparse_mc_batched(benchmark, sparse_engine, sparse_variation):
    """Batched sparse Newton: >= 5x over the loop, solutions equal at 1e-9."""
    result = benchmark.pedantic(
        sparse_engine.run, args=(sparse_variation,), rounds=1, iterations=1
    )
    assert result.converged.all()
    # One symbolic analysis served every numeric refactorization.
    assert sparse_engine.plan.sparse_schedule.n_symbolic == 1

    loop_time, loop_result = _scalar_sparse_loop(sparse_engine, sparse_variation)
    batched_time = benchmark.stats.stats.mean
    speedup = loop_time / batched_time
    print_rows(
        f"{N_SPARSE}-instance {SPARSE_STAGES}-stage MC — batched sparse",
        [("one run [ms]", batched_time * 1e3),
         ("loop run [ms]", loop_time * 1e3),
         ("speedup", speedup),
         ("max |batched - loop|", float(np.abs(result.x - loop_result.x).max()))],
    )
    # Acceptance bar: solutions equal to the scalar path at 1e-9 and a
    # >= 5x speedup over the per-instance loop.
    assert np.abs(result.x - loop_result.x).max() < 1e-9
    assert speedup >= 5.0


# Compiled AC sweep cases (test names carry the "ac_sweep" tag the CI
# bench-smoke filters key on): one dense-regime chain (104 unknowns,
# below SPARSE_THRESHOLD -> one-time QZ reduction + all-frequency
# triangular backsubstitution) and one sparse-regime chain (604
# unknowns -> per-frequency complex numeric refactorization on the
# plan's cached symbolic ordering), both swept over a 240-point grid
# against the pre-compile per-frequency dense loop on the *identical*
# linearization.  Acceptance bar: samples equal at 1e-9 and >= 10x.
N_AC_FREQUENCIES = 240
AC_DENSE_STAGES = 100
AC_SPARSE_STAGES = 600

_ac_cache: dict = {}


def _ac_case(stages):
    """(plan, frequencies, loop_time, reference) for one chain size.

    The legacy loop is expensive (~5 s at 604 unknowns): run it once
    per module and share between the loop-baseline and compiled tests.
    """
    case = _ac_cache.get(stages)
    if case is None:
        chain = build_inverter_chain(
            AlphaPowerFET(), n_stages=stages, input_waveform=DC(0.0)
        )
        plan = ACPlan(chain, "VIN")
        frequencies = np.logspace(3, 11, N_AC_FREQUENCIES)
        conductance, capacitance, rhs = plan.dense_system()
        start = time.perf_counter()
        reference = dense_frequency_loop(conductance, capacitance, rhs, frequencies)
        loop_time = time.perf_counter() - start
        case = (plan, frequencies, loop_time, reference)
        _ac_cache[stages] = case
    return case


def _bench_ac_sweep(benchmark, stages, label):
    plan, frequencies, loop_time, reference = _ac_case(stages)
    samples = benchmark.pedantic(
        plan.sweep_samples, args=(frequencies,), rounds=3, iterations=1
    )
    compiled_time = benchmark.stats.stats.min
    speedup = loop_time / compiled_time
    print_rows(
        f"{N_AC_FREQUENCIES}-point AC sweep, {plan.size} unknowns — {label}",
        [("compiled sweep [ms]", compiled_time * 1e3),
         ("per-frequency loop [ms]", loop_time * 1e3),
         ("speedup", speedup),
         ("max |compiled - loop|", float(np.abs(samples - reference).max()))],
    )
    # Acceptance bar: compiled samples equal to the legacy loop at 1e-9
    # and a >= 10x speedup on the identical linearization.
    assert np.abs(samples - reference).max() < 1e-9
    assert speedup >= 10.0


def test_ac_sweep_dense_frequency_loop(benchmark):
    """Baseline: the pre-compile per-frequency dense solve loop."""
    plan, frequencies, loop_time, reference = _ac_case(AC_DENSE_STAGES)
    benchmark.pedantic(lambda: reference, rounds=1, iterations=1)
    print_rows(
        f"{N_AC_FREQUENCIES}-point AC sweep, {plan.size} unknowns — dense loop",
        [("one run [ms]", loop_time * 1e3)],
    )
    assert not plan.use_sparse


def test_ac_sweep_dense_compiled(benchmark):
    """Schur-compiled dense sweep: O(size^2) per frequency after one QZ."""
    _bench_ac_sweep(benchmark, AC_DENSE_STAGES, "compiled (Schur)")


def test_ac_sweep_sparse_frequency_loop(benchmark):
    """Baseline: the same dense loop at sparse-regime size (604 unknowns)."""
    plan, frequencies, loop_time, reference = _ac_case(AC_SPARSE_STAGES)
    benchmark.pedantic(lambda: reference, rounds=1, iterations=1)
    print_rows(
        f"{N_AC_FREQUENCIES}-point AC sweep, {plan.size} unknowns — dense loop",
        [("one run [ms]", loop_time * 1e3)],
    )
    assert plan.use_sparse


def test_ac_sweep_sparse_compiled(benchmark):
    """Canonical-pattern complex refactorization per frequency."""
    _bench_ac_sweep(benchmark, AC_SPARSE_STAGES, "compiled (sparse)")


def test_sample_array_device_loop(benchmark):
    """Baseline: the seed implementation's device-by-device sampling loop."""
    model = CNFETArrayModel()

    def loop():
        rng = np.random.default_rng(SEED)
        return tuple(model.sample_device(rng) for _ in range(N_ARRAY_DEVICES))

    devices = benchmark(loop)
    print_rows(
        f"{N_ARRAY_DEVICES}-device array — per-device loop",
        [("mean run [ms]", benchmark.stats.stats.mean * 1e3)],
    )
    assert len(devices) == N_ARRAY_DEVICES


def test_sample_array_vectorized(benchmark):
    """The engine path: vectorised substream blocks."""
    model = CNFETArrayModel()
    result = benchmark(model.sample_array, N_ARRAY_DEVICES, seed=SEED)
    print_rows(
        f"{N_ARRAY_DEVICES}-device array — vectorised blocks",
        [("mean run [ms]", benchmark.stats.stats.mean * 1e3),
         ("pass fraction", result.pass_fraction)],
    )
    assert result.n_devices == N_ARRAY_DEVICES
    assert 0.7 < result.pass_fraction < 1.0
