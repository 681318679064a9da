"""Supervised sweep execution: crash recovery, merge-boundary rejection, resume.

The contract under test is the one that makes robustness *checkable*:
chunk seed substreams are position-keyed, so a chunk that is
resubmitted after a worker crash, degraded to in-process execution, or
reloaded from a checkpoint must reproduce the fault-free pooled result
bitwise.

Faults enter through the sweeps' own kernel seam, never through the
package: ``_draw_kernel`` (a ``SweepPlan`` kernel) and
``_FaultyMonteCarlo._solve_chunk`` (the DC engine's chunk solver) read
a fault plan from the directory named by ``REPRO_TEST_FAULT_DIR``.  On
a chosen key's first calls they kill the worker (``os._exit``, in pool
workers only), raise, or return a malformed entry.  The clean, faulty
and resumed runs share one kernel and payload, so their chunk specs —
and their checkpoint keys — are equal.

Test names carry ``chaos``/``recovery`` so CI's chaos smoke step can
select them with ``-k "chaos or recovery"``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.resilience import (
    CheckpointStore,
    ExecutionPolicy,
    SweepExecutionError,
    _submit,
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

FAULT_DIR = "REPRO_TEST_FAULT_DIR"


class InjectedFault(RuntimeError):
    """Raised by a ``raise`` fault (stands in for a kernel bug)."""


def _fault(key) -> bool:
    """Fire the fault planned for this call of ``key``; True = malformed.

    ``plan.json`` in the ``REPRO_TEST_FAULT_DIR`` directory maps a key
    to the fault kinds of its first calls, in order (``crash``,
    ``raise`` or ``malformed``).  Each call claims the next
    ``<key>-<call>`` marker file with ``O_CREAT | O_EXCL``, so the
    count is shared by the supervisor and every pool worker.  A
    ``crash`` in the supervising process itself is inert.
    """
    directory = os.environ.get(FAULT_DIR)
    if directory is None:
        return False
    plan = json.loads(Path(directory, "plan.json").read_text())
    for call, kind in enumerate(plan.get(str(key), ())):
        marker = Path(directory, f"{key}-{call}")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            continue
        if kind == "crash":
            if multiprocessing.parent_process() is not None:
                os._exit(17)
            return False
        if kind == "raise":
            raise InjectedFault(f"injected fault at {key} (call {call})")
        return True
    return False


@pytest.fixture
def inject(tmp_path, monkeypatch):
    """``inject({key: [kind, ...]})`` arms the kernels' fault plan."""

    def arm(plan):
        directory = tmp_path / "faults"
        directory.mkdir()
        (directory / "plan.json").write_text(
            json.dumps({str(key): kinds for key, kinds in plan.items()})
        )
        monkeypatch.setenv(FAULT_DIR, str(directory))

    return arm


# -- pool-safe kernels (module level so ProcessPoolExecutor can pickle) -------

def _square_kernel(value, rng, payload):
    return value * value


def _draw_kernel(value, rng, payload):
    if _fault(value):
        return "<malformed>"
    return float(rng.normal())


def _is_float(entry):
    return isinstance(entry, float)


DRAW = SweepPlan(_draw_kernel, validate=_is_float)


def _scale_kernel(value, rng, payload):
    return value * payload


def _failing_kernel(value, rng, payload):
    raise ValueError(f"kernel rejects {value}")


def _chunk_key(variation, start):
    """Fault key of the engine chunk whose first instance is ``start``."""
    return f"mc{float(variation.drive_scale[start, 0])!r}"


class _FaultyMonteCarlo(CircuitMonteCarlo):
    """The DC engine with faults keyed by each chunk's first drive scale."""

    def _solve_chunk(self, variation, x0):
        malformed = _fault(_chunk_key(variation, 0))
        x, converged = super()._solve_chunk(variation, x0)
        return (x[:, :-1] if malformed else x), converged


def _engine(n_stages=2, engine_type=CircuitMonteCarlo):
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=n_stages, input_waveform=DC(0.4)
    )
    return engine_type(chain)


class TestFingerprint:
    def test_stable_across_identical_construction(self):
        a = fingerprint((AlphaPowerFET(), np.arange(4), "tag"))
        b = fingerprint((AlphaPowerFET(), np.arange(4), "tag"))
        assert a == b

    def test_distinguishes_payloads(self):
        assert fingerprint(("a", 1)) != fingerprint(("a", 2))


class TestRunReport:
    def _report(self, inject):
        inject({2: ["raise"]})
        with pytest.raises(SweepExecutionError) as excinfo:
            DRAW.run(range(8), seed=1, policy=ExecutionPolicy(chunk_size=2))
        return excinfo.value.report

    def test_counts_and_taxonomy(self, inject):
        report = self._report(inject)
        assert not report.ok
        assert report.counts() == {"ok": 3, "failed": 1}
        assert report.failure_taxonomy() == {"error": 1}
        assert report.chunks[1].attempts == 1
        assert report.chunks[1].failures == ("error",)

    def test_one_line_and_json_round_trip(self, inject):
        report = self._report(inject)
        line = report.one_line()
        assert "3/4 chunks completed" in line
        assert "1 failed" in line
        assert "error=1" in line
        assert "chunk 1 raised InjectedFault: injected fault at 2" in line
        payload = json.loads(report.to_json())
        assert payload["chunks"][1]["failures"] == ["error"]
        assert payload["chunks"][0]["status"] == "ok"


class TestSupervisedSerialRecovery:
    """The in-process rung: one attempt per chunk, salvage of the rest."""

    def test_matches_plain_run_bitwise(self):
        plain = DRAW.run(range(20), seed=11)
        policy = ExecutionPolicy(chunk_size=5)
        supervised = DRAW.run(range(20), seed=11, policy=policy)
        assert supervised == plain
        assert policy.reports[-1].counts() == {"ok": 4}

    def test_raising_chunk_fails_first_attempt_with_salvage(self, inject):
        plain = DRAW.run(range(8), seed=3)
        inject({2: ["raise", "raise"]})
        policy = ExecutionPolicy(chunk_size=2)
        with pytest.raises(SweepExecutionError) as excinfo:
            DRAW.run(range(8), seed=3, policy=policy)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        report = excinfo.value.report
        assert report is policy.reports[-1]
        assert report.counts() == {"ok": 3, "failed": 1}
        assert report.chunks[1].failures == ("error",)
        # Salvage: the three good chunks' results survive.
        partial = excinfo.value.partial
        assert 1 not in partial
        assert partial[0] == plain[0:2]
        assert partial[2] == plain[4:6]
        assert partial[3] == plain[6:8]

    def test_exhausted_retries_raise_with_salvage(self, inject):
        # Chunk 0 crashes its worker on all three pooled attempts, then
        # raises on the in-process rung: it fails with every rung on
        # record, and the other chunks survive.
        plain = DRAW.run(range(16), seed=5)
        inject({0: ["crash"] * 3 + ["raise"]})
        policy = ExecutionPolicy(workers=2, chunk_size=4)
        with pytest.raises(SweepExecutionError) as excinfo:
            DRAW.run(range(16), seed=5, policy=policy)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        report = excinfo.value.report
        assert report.counts() == {"ok": 3, "failed": 1}
        assert report.chunks[0].failures == ("crash",) * 3 + ("error",)
        partial = excinfo.value.partial
        assert [v for k in (1, 2, 3) for v in partial[k]] == plain[4:]

    def test_corrupt_payload_rejected_at_merge_and_never_merged(self, inject):
        plain = DRAW.run(range(20), seed=11)
        inject({0: ["malformed"]})
        with pytest.raises(SweepExecutionError) as excinfo:
            DRAW.run(range(20), seed=11, policy=ExecutionPolicy(chunk_size=5))
        report = excinfo.value.report
        assert report.failure_taxonomy() == {"corrupt": 1}
        assert report.chunks[0].status == "failed"
        assert report.chunks[0].attempts == 1
        assert excinfo.value.__cause__ is None
        partial = excinfo.value.partial
        assert sorted(partial) == [1, 2, 3]
        assert [v for k in (1, 2, 3) for v in partial[k]] == plain[5:]

    def test_crash_fault_cannot_kill_the_supervisor(self, inject):
        # A crash fault fires only inside a pool worker: run in-process
        # (the last rung) it is inert, so the kernel can never take
        # down the supervising process itself.
        plain = DRAW.run(range(8), seed=2)
        inject({0: ["crash"] * 3})
        policy = ExecutionPolicy(chunk_size=2)
        assert DRAW.run(range(8), seed=2, policy=policy) == plain
        report = policy.reports[-1]
        assert report.ok and report.failure_taxonomy() == {}

    def test_failed_run_chains_the_kernel_exception(self):
        # No policy: the one in-process attempt raises, and the sweep
        # error chains the kernel's own exception and names it.
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepPlan(_failing_kernel).run([7])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == "kernel rejects 7"
        line = excinfo.value.report.one_line()
        assert "chunk 0 raised ValueError: kernel rejects 7" in line
        assert excinfo.value.report.chunks[0].failures == ("error",)

    def test_validator_applies_to_every_chunk(self):
        sweep = SweepPlan(_square_kernel, validate=lambda entry: 1 / 0)
        with pytest.raises(SweepExecutionError) as excinfo:
            sweep.run(range(4), policy=ExecutionPolicy(chunk_size=2))
        assert excinfo.value.report.failure_taxonomy() == {"corrupt": 2}


class TestPooledChaosRecovery:
    """Real worker processes: a dead worker is the one retried failure.

    Crash faults sit in chunk 0.  A breakage is charged to the earliest
    unfinished chunk, and chunk 0 never finishes before its own crash,
    so which chunk pays is deterministic.
    """

    def test_worker_crash_triggers_pool_rebuild_and_recovery(self, inject):
        # The os._exit(17) fault is a true mid-chunk worker death: the
        # pool breaks, is rebuilt, and the resubmitted chunk must land
        # on exactly the fault-free numbers.
        plain = DRAW.run(range(16), seed=5, policy=ExecutionPolicy(chunk_size=4))
        inject({0: ["crash"]})
        policy = ExecutionPolicy(workers=2, chunk_size=4)
        supervised = DRAW.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.ok
        assert report.pool_rebuilds == 1
        assert report.failure_taxonomy() == {"crash": 1}
        assert report.chunks[0].attempts == 2

    def test_persistent_crasher_degrades_to_serial_rung(self, inject):
        # A chunk that kills every worker it touches uses up its pooled
        # attempts; the last rung runs it in-process, where the crash
        # fault is inert — same numbers, status "serial".
        plain = DRAW.run(range(16), seed=5, policy=ExecutionPolicy(chunk_size=4))
        inject({0: ["crash"] * 99})
        policy = ExecutionPolicy(workers=2, chunk_size=4)
        supervised = DRAW.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.chunks[0].status == "serial"
        assert report.chunks[0].failures == ("crash",) * 3
        assert report.ok

    def test_pool_breakage_is_charged_once_recovery(self, inject):
        # Eight chunks on two workers, chunk 0 crashing every pooled
        # attempt: each breakage costs only chunk 0 an attempt, and
        # its unfinished siblings resubmit for free.
        plain = DRAW.run(range(16), seed=5)
        inject({0: ["crash"] * 99})
        policy = ExecutionPolicy(workers=2, chunk_size=2)
        supervised = DRAW.run(range(16), seed=5, policy=policy)
        report = policy.reports[-1]
        assert supervised == plain
        assert report.chunks[0].status == "serial"
        assert [(c.status, c.attempts) for c in report.chunks[1:]] == [("ok", 1)] * 7
        assert report.failure_taxonomy() == {"crash": 3}
        assert report.pool_rebuilds == 3

    def test_raising_pooled_chunk_is_not_rerun_recovery(self, inject):
        plain = DRAW.run(range(16), seed=5)
        inject({4: ["raise"]})
        policy = ExecutionPolicy(workers=2, chunk_size=4)
        with pytest.raises(SweepExecutionError) as excinfo:
            DRAW.run(range(16), seed=5, policy=policy)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        report = excinfo.value.report
        assert report.counts() == {"ok": 3, "failed": 1}
        assert report.chunks[1].failures == ("error",)
        assert report.pool_rebuilds == 0
        assert excinfo.value.partial[3] == plain[12:]


    def test_submit_to_a_broken_pool_returns_a_failed_future(self):
        # A worker can die while a wave is still being submitted; the
        # rest of the wave must fail like any unfinished chunk instead
        # of escaping the supervisor as BrokenProcessPool.
        pool = ProcessPoolExecutor(max_workers=1)
        with pytest.raises(BrokenExecutor):
            pool.submit(os._exit, 17).result()
        future = _submit(pool, _square_kernel, 3)
        pool.shutdown()
        with pytest.raises(BrokenExecutor):
            future.result()

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
    def test_killed_run_resumes_bitwise(self, tmp_path, inject):
        # Run A dies mid-flight (chunk 4 raises, the other five are
        # persisted); run B with the same checkpoint root skips them
        # and must finish on exactly the numbers of a single
        # uninterrupted run.
        plain = DRAW.run(range(24), seed=9, policy=ExecutionPolicy(chunk_size=4))
        inject({16: ["raise"]})
        dying = ExecutionPolicy(chunk_size=4, checkpoint_root=tmp_path)
        with pytest.raises(SweepExecutionError):
            DRAW.run(range(24), seed=9, policy=dying)
        assert dying.reports[-1].counts() == {"ok": 5, "failed": 1}
        policy = ExecutionPolicy(chunk_size=4, checkpoint_root=tmp_path)
        resumed = DRAW.run(range(24), seed=9, policy=policy)
        report = policy.reports[-1]
        assert resumed == plain
        assert report.counts() == {"cached": 5, "ok": 1}
        assert report.chunks[4].status == "ok"

    def test_checkpoints_are_keyed_by_seed(self, tmp_path):
        policy = ExecutionPolicy(chunk_size=4, checkpoint_root=tmp_path)
        DRAW.run(range(8), seed=1, policy=policy)
        other = DRAW.run(range(8), seed=2, policy=policy)
        report = policy.reports[-1]
        # A different seed must never serve the old seed's chunks.
        assert report.counts() == {"ok": 2}
        assert other == DRAW.run(range(8), seed=2, policy=ExecutionPolicy(chunk_size=4))

    def test_checkpoints_are_keyed_by_payload(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_root=tmp_path)
        scaled = SweepPlan(_scale_kernel, payload=2)
        tripled = SweepPlan(_scale_kernel, payload=3)
        assert scaled.run(range(4), policy=policy) == [0, 2, 4, 6]
        results = tripled.run(range(4), policy=policy)
        report = policy.reports[-1]
        assert results == [0, 3, 6, 9]
        assert report.counts() == {"ok": 1}


class TestEngineChaosAcceptance:
    """Crash recovery and resume on the real Monte Carlo engine."""

    N_INSTANCES = 256

    def _setup(self):
        engine = _engine(engine_type=_FaultyMonteCarlo)
        variation = FETVariation.sample(
            self.N_INSTANCES, len(engine.fet_names), seed=42, drive_sigma=0.12
        )
        clean = engine.run(variation, policy=ExecutionPolicy(chunk_size=64))
        return engine, variation, clean

    def test_chaos_mc_crash_recovers_bitwise_identical(self, inject):
        # 256 instances in 4 chunks of 64 on 2 workers, with chunk 0's
        # worker killed once: the statistics must be bitwise those of
        # the fault-free run.
        engine, variation, clean = self._setup()
        inject({_chunk_key(variation, 0): ["crash"]})
        policy = ExecutionPolicy(workers=2, chunk_size=64)
        chaotic = engine.run(variation, policy=policy)
        assert np.array_equal(clean.x, chaotic.x)
        assert np.array_equal(clean.converged, chaotic.converged)
        report = policy.reports[-1]
        assert report.ok
        assert report.failure_taxonomy() == {"crash": 1}
        assert report.pool_rebuilds == 1

    def test_chaos_mc_killed_midflight_resumes_bitwise(self, tmp_path, inject):
        # The first run returns a malformed chunk 3, which the engine's
        # schema rejects at the merge boundary; the other three chunks
        # are checkpointed.  The resume must skip them and reproduce
        # the uninterrupted run exactly.
        engine, variation, clean = self._setup()
        inject({_chunk_key(variation, 192): ["malformed"]})
        dying = ExecutionPolicy(chunk_size=64, checkpoint_root=tmp_path)
        with pytest.raises(SweepExecutionError) as excinfo:
            engine.run(variation, policy=dying)
        report = excinfo.value.report
        assert report.counts() == {"ok": 3, "failed": 1}
        assert report.failure_taxonomy() == {"corrupt": 1}
        assert report.checkpoint_dir is not None
        policy = ExecutionPolicy(chunk_size=64, checkpoint_root=tmp_path)
        resumed = engine.run(variation, policy=policy)
        assert np.array_equal(clean.x, resumed.x)
        assert np.array_equal(clean.converged, resumed.converged)
        assert policy.reports[-1].counts() == {"cached": 3, "ok": 1}


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
        policy = ExecutionPolicy(chunk_size=32)
        supervised = functional_yield(model, n_trials=40, seed=3, policy=policy)
        assert supervised == plain
        assert policy.reports[-1].counts() == {"ok": 2}

    def test_sample_array_supervised_matches(self):
        from repro.integration.variability import CNFETArrayModel

        model = CNFETArrayModel(
            semiconducting_purity=0.999, mean_tubes_per_device=4.0
        )
        plain = model.sample_array(200, seed=8)
        policy = ExecutionPolicy(chunk_size=64)
        supervised = model.sample_array(200, seed=8, policy=policy)
        assert np.array_equal(plain.on_currents_a(), supervised.on_currents_a())
        assert [report.counts() for report in policy.reports] == [{"ok": 1}]

    def test_fabric_density_supervised_matches(self):
        from repro.experiments.fabric_density import run_fabric_density

        kwargs = dict(pitches_nm=(8.0,), purities=(0.9,), n_samples=2, seed=7)
        plain = run_fabric_density(**kwargs)
        policy = ExecutionPolicy()
        supervised = run_fabric_density(policy=policy, **kwargs)
        assert supervised == plain
        assert policy.reports and all(report.ok for report in policy.reports)

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
