"""Supervised sweep execution: fault injection, recovery, checkpoint/resume.

The contract under test is the one that makes robustness *checkable*:
chunk seed substreams are position-keyed, so a chunk that is retried
after a crash, degraded to in-process serial execution, or reloaded
from a checkpoint must reproduce the fault-free pooled result bitwise.
Every recovery rung is driven by the deterministic
:class:`~repro.circuit.resilience.FaultPlan` harness — worker crash
(``os._exit``), hang past the timeout, raised exception, and
schema-corrupt payload rejected at the merge boundary.

Test names carry ``chaos``/``recovery`` so CI's chaos smoke step can
select them with ``-k "chaos or recovery"``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.circuit.resilience import (
    CheckpointStore,
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    RunReport,
    SweepExecutionError,
)
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    CircuitTransientMC,
    FETVariation,
    SweepPlan,
)
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from repro.store import fingerprint


# -- pool-safe kernels (module level so ProcessPoolExecutor can pickle) -------

def _square_kernel(value, rng, payload):
    return value * value


def _draw_kernel(value, rng, payload):
    return float(rng.normal())


def _scale_kernel(value, rng, payload):
    return value * payload


def _failing_kernel(value, rng, payload):
    raise ValueError(f"kernel rejects {value}")


def _fast_policy(**overrides):
    """Millisecond backoff so retry ladders don't slow the suite."""
    overrides.setdefault("backoff_s", 0.001)
    return ExecutionPolicy(**overrides)


def _engine(n_stages=2, engine_type=CircuitMonteCarlo):
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=DC(0.4)
    )
    return engine_type(chain)


class TestFaultPlan:
    def test_fires_for_the_first_n_submissions(self):
        plan = FaultPlan.single(3, "raise", times=2)
        assert plan.fault_for(3, 0) is not None
        assert plan.fault_for(3, 1) is not None
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(0, 0) is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("oom")

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            FaultSpec("raise", times=0)

    def test_is_deterministic_state_free(self):
        plan = FaultPlan.single(1, "corrupt")
        # Querying must not consume anything: same answer every time.
        assert plan.fault_for(1, 0) == plan.fault_for(1, 0)


class TestFingerprint:
    def test_stable_across_identical_construction(self):
        a = fingerprint((AlphaPowerFET(), np.arange(4), "tag"))
        b = fingerprint((AlphaPowerFET(), np.arange(4), "tag"))
        assert a == b

    def test_distinguishes_payloads(self):
        assert fingerprint(("a", 1)) != fingerprint(("a", 2))


class TestRunReport:
    def _report(self):
        sweep = SweepPlan(_square_kernel)
        policy = _fast_policy(chunk_size=2, fault_plan=FaultPlan.single(1, "raise"))
        sweep.run(range(8), policy=policy)
        return policy.reports[-1]

    def test_counts_and_taxonomy(self):
        report = self._report()
        assert report.ok
        assert report.counts() == {"ok": 4}
        assert report.failure_taxonomy() == {"error": 1}
        assert report.chunks[1].attempts == 2
        assert list(report.chunks[1].failures) == ["error"]

    def test_one_line_and_json_round_trip(self):
        import json

        report = self._report()
        line = report.one_line()
        assert "4/4 chunks completed" in line
        assert "error=1" in line
        payload = json.loads(report.to_json())
        assert payload["chunks"][1]["failures"] == ["error"]
        assert payload["chunks"][0]["status"] == "ok"


class TestSupervisedSerialRecovery:
    """The supervisor without a pool: retries, merge validation, salvage."""

    def test_matches_plain_run_bitwise(self):
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(20), seed=11, policy=ExecutionPolicy(chunk_size=5))
        policy = _fast_policy(chunk_size=5)
        supervised = sweep.run(range(20), seed=11, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.counts() == {"ok": 4}

    def test_raise_fault_is_retried_bitwise(self):
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(20), seed=11, policy=ExecutionPolicy(chunk_size=5))
        policy = _fast_policy(chunk_size=5, fault_plan=FaultPlan.single(2, "raise"))
        supervised = sweep.run(range(20), seed=11, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.failure_taxonomy() == {"error": 1}

    def test_corrupt_payload_rejected_at_merge_and_retried(self):
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(20), seed=11, policy=ExecutionPolicy(chunk_size=5))
        policy = _fast_policy(chunk_size=5, fault_plan=FaultPlan.single(0, "corrupt"))
        supervised = sweep.run(range(20), seed=11, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.failure_taxonomy() == {"corrupt": 1}

    def test_crash_and_hang_faults_cannot_kill_the_supervisor(self):
        # crash/hang are pool-only injections: running serially (the
        # last degradation rung) they are inert, by design — a fault
        # plan must never take down the supervising process itself.
        sweep = SweepPlan(_square_kernel)
        policy = _fast_policy(
            chunk_size=2,
            fault_plan=FaultPlan(
                {0: FaultSpec("crash", times=99), 1: FaultSpec("hang", times=99)}
            ),
        )
        results = sweep.run(range(8), policy=policy)
        report = policy.reports[-1]
        assert results == [v * v for v in range(8)]
        assert report.ok and report.failure_taxonomy() == {}

    def test_exhausted_retries_raise_with_salvage(self):
        sweep = SweepPlan(_square_kernel)
        policy = _fast_policy(
            chunk_size=2,
            max_retries=1,
            fault_plan=FaultPlan.single(1, "raise", times=99),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            sweep.run(range(8), policy=policy)
        report = excinfo.value.report
        assert not report.ok
        assert report.counts() == {"ok": 3, "failed": 1}
        # Salvage: the three good chunks' results survive.
        partial = excinfo.value.partial
        assert 1 not in partial
        assert partial[0] == [0, 1]
        assert partial[2] == [16, 25]
        assert partial[3] == [36, 49]

    def test_failed_run_chains_the_kernel_exception(self):
        # No policy: the default supervisor retries, then raises with
        # the kernel's own exception as the cause and named in the line.
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepPlan(_failing_kernel).run([7])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == "kernel rejects 7"
        line = excinfo.value.report.one_line()
        assert "chunk 0 raised ValueError: kernel rejects 7" in line
        assert excinfo.value.report.chunks[0].failures == ("error",) * 3

    def test_validator_applies_to_every_chunk(self):
        sweep = SweepPlan(_square_kernel, validate=lambda entry: 1 / 0)
        policy = _fast_policy(chunk_size=2, max_retries=0)
        with pytest.raises(SweepExecutionError) as excinfo:
            sweep.run(range(4), policy=policy)
        assert excinfo.value.report.failure_taxonomy() == {"corrupt": 2}


class TestPooledChaosRecovery:
    """Real worker processes: crash, hang, corrupt — recover bitwise."""

    def test_worker_crash_triggers_pool_rebuild_and_recovery(self):
        # The os._exit(17) injection is a true mid-chunk worker death:
        # the pool breaks, is rebuilt, and the retried chunk must land
        # on exactly the fault-free numbers.
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(16), seed=5, policy=ExecutionPolicy(chunk_size=4))
        policy = _fast_policy(
            workers=2, chunk_size=4, fault_plan=FaultPlan.single(0, "crash")
        )
        supervised = sweep.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.pool_rebuilds >= 1
        assert report.failure_taxonomy().get("crash", 0) >= 1
        assert report.ok

    def test_hung_worker_times_out_and_recovers(self):
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(16), seed=5, policy=ExecutionPolicy(chunk_size=4))
        policy = _fast_policy(
            workers=2,
            chunk_size=4,
            timeout_s=2.0,
            fault_plan=FaultPlan.single(1, "hang", hang_s=8.0),
        )
        supervised = sweep.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.failure_taxonomy() == {"timeout": 1}
        assert report.pool_rebuilds == 1

    def test_persistent_crasher_degrades_to_serial_rung(self):
        # A chunk that kills every worker it touches exhausts its pooled
        # retries; the ladder's last rung runs it in-process, where the
        # pool-only crash fault is inert — same numbers, status "serial".
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(16), seed=5, policy=ExecutionPolicy(chunk_size=4))
        policy = _fast_policy(
            workers=2,
            chunk_size=4,
            max_retries=1,
            fault_plan=FaultPlan.single(2, "crash", times=99),
        )
        supervised = sweep.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.chunks[2].status == "serial"
        assert report.ok


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path, "run-a")
        store.store(3, "digest", [1.0, 2.0])
        assert store.load(3, "digest") == [1.0, 2.0]

    def test_digest_mismatch_misses(self, tmp_path):
        store = CheckpointStore(tmp_path, "run-a")
        store.store(3, "digest", [1.0])
        assert store.load(3, "other-digest") is None

    def test_corrupt_file_misses(self, tmp_path):
        store = CheckpointStore(tmp_path, "run-a")
        store.store(0, "digest", [1.0])
        store.chunk_path(0).write_bytes(b"not a pickle")
        assert store.load(0, "digest") is None

    @pytest.mark.parametrize(
        "garbage",
        [
            b"\x80\x09.",  # unsupported protocol: ValueError
            b"\x80\x04cno_such_mod\nFoo\n.",  # ModuleNotFoundError
            b"\x80\x04\x95garbage-bytes-here",  # absurd frame: MemoryError
        ],
    )
    def test_unloadable_file_misses(self, tmp_path, garbage):
        store = CheckpointStore(tmp_path, "run-a")
        store.store(0, "digest", [1.0])
        store.chunk_path(0).write_bytes(garbage)
        assert store.load(0, "digest") is None

    def test_runs_do_not_collide(self, tmp_path):
        a = CheckpointStore(tmp_path, "run-a")
        b = CheckpointStore(tmp_path, "run-b")
        a.store(0, "digest", ["a"])
        b.store(0, "digest", ["b"])
        assert a.load(0, "digest") == ["a"]
        assert b.load(0, "digest") == ["b"]


class TestCheckpointKeys:
    def test_engine_chunk_digest_does_not_depend_on_the_hash_seed(self):
        # A resumed run is a new process with a new string hash seed; a
        # circuit Monte Carlo chunk must still find its checkpoint.
        script = (
            "from repro.store import fingerprint\n"
            "from repro.circuit.sweep import CircuitMonteCarlo\n"
            "from repro.circuit.waveforms import DC\n"
            "from repro.devices.empirical import AlphaPowerFET\n"
            "from repro.experiments.cascade import build_inverter_chain\n"
            "chain = build_inverter_chain(\n"
            "    AlphaPowerFET(), n_stages=2, input_waveform=DC(0.4)\n"
            ")\n"
            "print(fingerprint(CircuitMonteCarlo(chain)))\n"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout
            for seed in (1, 2, 3)
        }
        assert len(digests) == 1


class TestCheckpointRecovery:
    def test_killed_run_resumes_bitwise(self, tmp_path):
        # Run A dies mid-flight (an unrecoverable fault aborts the
        # process with chunks 0..k already persisted); run B with the
        # same checkpoint root skips them and must finish on exactly
        # the numbers of a single uninterrupted run.
        sweep = SweepPlan(_draw_kernel)
        plain = sweep.run(range(24), seed=9, policy=ExecutionPolicy(chunk_size=4))
        dying = _fast_policy(
            chunk_size=4,
            checkpoint_root=tmp_path,
            max_retries=0,
            fault_plan=FaultPlan.single(4, "raise", times=99),
        )
        with pytest.raises(SweepExecutionError):
            sweep.run(range(24), seed=9, policy=dying)
        policy = _fast_policy(chunk_size=4, checkpoint_root=tmp_path)
        resumed = sweep.run(range(24), seed=9, policy=policy)
        report = policy.reports[-1]
        assert resumed == plain
        assert report.counts() == {"cached": 5, "ok": 1}
        assert report.chunks[4].status == "ok"

    def test_checkpoints_are_keyed_by_seed(self, tmp_path):
        sweep = SweepPlan(_draw_kernel)
        policy = _fast_policy(chunk_size=4, checkpoint_root=tmp_path)
        sweep.run(range(8), seed=1, policy=policy)
        other = sweep.run(range(8), seed=2, policy=policy)
        report = policy.reports[-1]
        # A different seed must never serve the old seed's chunks.
        assert report.counts() == {"ok": 2}
        assert other == sweep.run(
            range(8), seed=2, policy=ExecutionPolicy(chunk_size=4)
        )

    def test_checkpoints_are_keyed_by_payload(self, tmp_path):
        policy = _fast_policy(checkpoint_root=tmp_path)
        scaled = SweepPlan(_scale_kernel, payload=2)
        tripled = SweepPlan(_scale_kernel, payload=3)
        assert scaled.run(range(4), policy=policy) == [0, 2, 4, 6]
        results = tripled.run(range(4), policy=policy)
        report = policy.reports[-1]
        assert results == [0, 3, 6, 9]
        assert report.counts() == {"ok": 1}


class TestEngineChaosAcceptance:
    """The issue's acceptance bar, on the real Monte Carlo engine."""

    N_INSTANCES = 256

    def _variation(self, engine):
        return FETVariation.sample(
            self.N_INSTANCES, len(engine.fet_names), seed=42, drive_sigma=0.12
        )

    def test_chaos_mc_crash_hang_corrupt_bitwise_identical(self):
        # 256 instances in 4 chunks of 64 on 2 workers, with a worker
        # crash, a hang past the timeout, and a corrupt payload all
        # injected (times=2 so the crash wave cannot mask the others).
        # The statistics must be bitwise those of the fault-free run.
        engine = _engine()
        variation = self._variation(engine)
        clean = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        faults = FaultPlan(
            {
                0: FaultSpec("crash"),
                2: FaultSpec("hang", times=2, hang_s=12.0),
                3: FaultSpec("corrupt", times=2),
            }
        )
        policy = _fast_policy(
            workers=2, chunk_size=64, timeout_s=5.0, fault_plan=faults
        )
        chaotic = engine.run(variation, policy=policy)
        assert np.array_equal(clean.x, chaotic.x)
        assert np.array_equal(clean.converged, chaotic.converged)
        report = policy.reports[-1]
        assert report.ok
        taxonomy = report.failure_taxonomy()
        assert taxonomy.get("crash", 0) >= 1
        assert taxonomy.get("timeout", 0) >= 1
        assert taxonomy.get("corrupt", 0) >= 1
        assert report.pool_rebuilds >= 2

    def test_chaos_mc_killed_midflight_resumes_bitwise(self, tmp_path):
        # Same engine run killed mid-flight: the first attempt aborts
        # with three of four chunks checkpointed; the resume must skip
        # them and reproduce the uninterrupted run exactly.
        engine = _engine()
        variation = self._variation(engine)
        clean = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        dying = _fast_policy(
            chunk_size=64,
            checkpoint_root=tmp_path,
            max_retries=0,
            fault_plan=FaultPlan.single(3, "raise", times=99),
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            engine.run(variation, policy=dying)
        assert excinfo.value.report.counts() == {"ok": 3, "failed": 1}
        resumed = engine.run(
            variation,
            policy=_fast_policy(chunk_size=64, checkpoint_root=tmp_path),
        )
        assert np.array_equal(clean.x, resumed.x)
        assert np.array_equal(clean.converged, resumed.converged)
        report = dying.reports[-1]
        assert report.checkpoint_dir is not None


class TestPolicyThreading:
    """`policy=` reaches the sweeps of the user-facing entry points."""

    def test_functional_yield_supervised_matches(self):
        from repro.logic.faults import GateYieldModel, functional_yield

        model = GateYieldModel(
            semiconducting_purity=0.9999,
            tubes_per_gate=10.0,
            removal_efficiency=0.999,
        )
        plain = functional_yield(model, n_trials=40, seed=3)
        policy = _fast_policy(fault_plan=FaultPlan.single(0, "raise"))
        supervised = functional_yield(model, n_trials=40, seed=3, policy=policy)
        assert supervised.functional_yield == plain.functional_yield
        assert policy.reports[-1].failure_taxonomy() == {"error": 1}

    def test_sample_array_supervised_matches(self):
        from repro.integration.variability import CNFETArrayModel

        model = CNFETArrayModel(
            semiconducting_purity=0.999, mean_tubes_per_device=4.0
        )
        plain = model.sample_array(200, seed=8)
        policy = _fast_policy(fault_plan=FaultPlan.single(0, "corrupt"))
        supervised = model.sample_array(200, seed=8, policy=policy)
        assert np.array_equal(plain.on_currents_a(), supervised.on_currents_a())
        assert policy.reports[-1].failure_taxonomy() == {"corrupt": 1}

    def test_fabric_density_supervised_matches(self):
        from repro.experiments.fabric_density import run_fabric_density

        kwargs = dict(pitches_nm=(8.0,), purities=(0.9,), n_samples=2, seed=7)
        plain = run_fabric_density(**kwargs)
        policy = _fast_policy(fault_plan=FaultPlan.single(0, "raise"))
        supervised = run_fabric_density(policy=policy, **kwargs)
        assert supervised == plain

    def test_integration_stats_pools_every_stage(self):
        from repro.experiments.integration_stats import run_integration_stats

        kwargs = dict(
            n_array_devices=200,
            n_functional_trials=8,
            n_circuit_instances=16,
            n_delay_instances=4,
        )
        serial = run_integration_stats(**kwargs)
        policy = ExecutionPolicy(workers=2)
        pooled = run_integration_stats(policy=policy, **kwargs)
        assert pooled.rows() == serial.rows()
        # The array, the functional yield, the 13 inverter-ladder levels
        # and the delay distribution all ran on the pool.
        assert [report.workers for report in policy.reports] == [2] * 16


class TestEveryRunReports:
    """Every sweep is supervised: each run appends exactly one report."""

    @pytest.mark.parametrize("n", [0, 3])
    def test_sweep_plan(self, n):
        policy = ExecutionPolicy()
        assert SweepPlan(_square_kernel).run(range(n), policy=policy) == [
            v * v for v in range(n)
        ]
        assert len(policy.reports) == 1
        assert policy.reports[0].n_chunks == (1 if n else 0)

    @pytest.mark.parametrize("n", [0, 3])
    def test_dc_engine(self, n):
        engine = _engine()
        policy = ExecutionPolicy()
        variation = FETVariation.nominal(n, len(engine.fet_names))
        result = engine.run(variation, policy=policy)
        assert result.x.shape == (n, engine.plan.size)
        assert len(policy.reports) == 1 and policy.reports[0].ok

    @pytest.mark.parametrize("n", [0, 3])
    def test_transient_engine(self, n):
        engine = _engine(engine_type=CircuitTransientMC)
        policy = ExecutionPolicy()
        variation = FETVariation.nominal(n, len(engine.fet_names))
        result = engine.run(variation, 1e-10, 1e-11, policy=policy)
        assert result.samples.shape == (n, 11, engine.plan.size)
        assert len(policy.reports) == 1 and policy.reports[0].ok
