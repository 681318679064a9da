"""Fault-tolerant sweep execution: supervision, checkpoints, fault injection.

The paper's argument is imperfection tolerance — yield under stuck-at
faults — yet a plain ``ProcessPoolExecutor.map`` over Monte Carlo
chunks is all-or-nothing: one worker segfault or OOM kill raises
``BrokenProcessPool`` and the entire run is lost.  This module gives
:class:`repro.circuit.sweep.SweepPlan` the same property the circuits
under study are measured for — graceful degradation.
:func:`run_supervised` is the only sweep executor in the package:
every ``SweepPlan.run`` (and so every circuit Monte Carlo run) goes
through it, in-process or on a pool, and one :class:`ExecutionPolicy`
(workers, chunk size, timeout, retries, checkpoints) describes how.

* **Supervised execution** (:func:`run_supervised`): chunks are
  submitted as individual futures with a per-chunk timeout; a crashed
  pool is rebuilt and the surviving chunks resubmitted with exponential
  backoff; results already computed are harvested before every
  teardown; chunks that exhaust their pooled retries fall down one rung
  to in-process serial execution.  Every outcome is recorded in a
  :class:`RunReport` (per-chunk status, attempts, timings, failure
  taxonomy, the last exception of a failed chunk) and an irrecoverable
  run raises :class:`SweepExecutionError` carrying the report plus
  every salvaged chunk, chained from the failed chunk's last
  exception.
* **Chunk checkpoint/resume** (:class:`CheckpointStore`): completed
  chunk results are atomically persisted
  (:func:`repro.store.atomic_write_bytes`, the writer the surrogate
  disk cache shares) into a run directory keyed by the
  :func:`repro.store.fingerprint` digests of the run's chunk specs
  (kernel, payload, parameter rows, seed substreams).  A run killed
  mid-flight resumes by loading finished chunks and computing only the
  rest; an unreadable chunk file is a miss, never an error.
* **Deterministic fault injection** (:class:`FaultPlan`): tests (and
  the CI chaos smoke) make chosen chunks crash the worker, hang past
  the timeout, raise, or return schema-corrupt payloads on chosen
  attempts — deterministically, so every recovery path is exercised as
  a tier-1 assertion rather than hoped-for behaviour.
* **Merge-boundary validation**: a chunk's payload is validated
  *before* it is merged (result-list shape plus an optional per-entry
  schema check) — corrupt payloads are classified and retried at the
  boundary instead of being patched downstream.

Why recovery is *provably* correct here: chunk results depend only on
the chunk's spec (parameter rows plus position-keyed
``SeedSequence.spawn`` substreams), never on which process executes it
or on the attempt number.  A retried, resubmitted, or
serially-degraded chunk is therefore bitwise identical to the pooled
original — asserted by the recovery test suite.

Scope notes: per-chunk timeouts apply to pooled execution (an
in-process kernel cannot be preempted); ``crash``/``hang`` faults are
likewise injected only into pool workers so a test plan can never take
down the supervisor itself, while ``raise``/``corrupt`` faults fire in
both execution modes.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.store import atomic_write_bytes, fingerprint

__all__ = [
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "CheckpointStore",
    "ChunkRecord",
    "RunReport",
    "SweepExecutionError",
    "run_supervised",
]

_LOG = logging.getLogger(__name__)

#: Failure taxonomy recorded per attempt in :class:`ChunkRecord.failures`.
FAILURE_KINDS = ("crash", "timeout", "error", "corrupt")

#: On-disk checkpoint format version; bumping invalidates old run dirs.
_CHECKPOINT_VERSION = 1

#: Upper bound on the backoff sleep between pool rebuilds [s].
_BACKOFF_CAP_S = 2.0
#: Growth of the backoff sleep per successive pool rebuild.
_BACKOFF_FACTOR = 2.0


# ---------------------------------------------------------------------------
# Deterministic fault injection.
# ---------------------------------------------------------------------------


class FaultInjected(RuntimeError):
    """Raised by an injected ``raise`` fault (stands in for a kernel bug)."""


#: What a ``corrupt`` fault returns instead of the chunk's result list —
#: guaranteed to fail merge-boundary validation.
_CORRUPT_PAYLOAD = "<corrupt-chunk-payload>"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what happens, and on how many attempts.

    ``kind`` is one of ``crash`` (``os._exit`` the worker — the
    segfault/OOM-kill stand-in), ``hang`` (sleep ``hang_s``, past the
    supervisor timeout), ``raise`` (a kernel exception), or ``corrupt``
    (return a payload that fails merge-boundary validation).  The fault
    fires on the first ``times`` submissions of its chunk and then
    stops, so a bounded-retry supervisor recovers deterministically.
    """

    kind: str
    times: int = 1
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "hang", "raise", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.times < 1:
            raise ValueError("a fault must fire at least once")


@dataclass(frozen=True)
class FaultPlan:
    """Chunk-index-keyed fault schedule for supervisor tests.

    Deterministic by construction: whether a fault fires depends only
    on ``(chunk index, submission number)``, never on timing — so a
    chaos test asserts exact recovery, not probabilistic survival.
    """

    faults: Mapping[int, FaultSpec]

    def fault_for(self, chunk_index: int, submission: int) -> FaultSpec | None:
        spec = self.faults.get(chunk_index)
        if spec is not None and submission < spec.times:
            return spec
        return None

    @classmethod
    def single(
        cls, chunk_index: int, kind: str, *, times: int = 1, hang_s: float = 30.0
    ) -> "FaultPlan":
        return cls({chunk_index: FaultSpec(kind, times=times, hang_s=hang_s)})


def _apply_inprocess_fault(fault: FaultSpec | None):
    """Fire the in-process-safe fault kinds; ``(handled, payload)``.

    ``crash``/``hang`` are pool-only (a test plan must never take down
    the supervisor process itself) and are skipped here.
    """
    if fault is None:
        return False, None
    if fault.kind == "raise":
        raise FaultInjected(f"injected kernel failure ({fault.times} time(s))")
    if fault.kind == "corrupt":
        return True, _CORRUPT_PAYLOAD
    return False, None


def _supervised_chunk(job):
    """Pool-side chunk target: inject the scheduled fault, then run.

    Top-level so process pools can pickle it.  ``job`` is
    ``(chunk_fn, spec, fault)``; the fault, if any, fires *inside the
    worker* — a crash here is indistinguishable from a real segfault as
    far as the supervising parent is concerned.
    """
    chunk_fn, spec, fault = job
    if fault is not None:
        if fault.kind == "crash":
            os._exit(17)
        if fault.kind == "hang":
            time.sleep(fault.hang_s)
        else:
            handled, payload = _apply_inprocess_fault(fault)
            if handled:
                return payload
    return chunk_fn(spec)


# ---------------------------------------------------------------------------
# Chunk-granular checkpoints.
# ---------------------------------------------------------------------------


class CheckpointStore:
    """Atomic per-chunk result persistence for one supervised run.

    Chunk files live under ``<root>/<run_key>/chunk-NNNNN.pkl`` where
    ``run_key`` fingerprints the digests of every chunk spec of the run
    — two different sweeps sharing one checkpoint root can never
    collide.
    Each file records the chunk's own spec digest; a load whose digest
    does not match (stale file from edited code or parameters) is
    ignored and the chunk recomputed.  Writes are atomic (unique
    ``mkstemp`` temp + ``os.replace``) and best-effort: a read-only or
    full disk degrades to plain recomputation, never to corruption.
    """

    def __init__(self, root: str | Path, run_key: str):
        self.root = Path(root)
        self.run_key = run_key
        self.directory = self.root / run_key

    def chunk_path(self, index: int) -> Path:
        return self.directory / f"chunk-{index:05d}.pkl"

    def load(self, index: int, digest: str):
        """The stored result list of one chunk, or None on any defect."""
        path = self.chunk_path(index)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
            if (
                record.get("version") == _CHECKPOINT_VERSION
                and record.get("index") == index
                and record.get("digest") == digest
            ):
                return record["results"]
        except Exception:
            # A torn, truncated or foreign file: unpickling can raise
            # almost anything (ValueError, ImportError, MemoryError...).
            pass
        return None

    def store(self, index: int, digest: str, results: list) -> None:
        """Atomically persist one completed chunk (best effort)."""
        path = self.chunk_path(index)
        record = {
            "version": _CHECKPOINT_VERSION,
            "index": index,
            "digest": digest,
            "results": results,
        }
        try:
            atomic_write_bytes(path, pickle.dumps(record, protocol=4))
        except OSError:
            _LOG.warning("checkpoint write failed for chunk %d at %s", index, path)


# ---------------------------------------------------------------------------
# Policy, per-chunk records, and the run report.
# ---------------------------------------------------------------------------


@dataclass
class ExecutionPolicy:
    """How one sweep run executes: pool, chunking and supervision.

    ``workers`` > 1 runs chunks on a process pool of that size (None or
    1 = in-process).  ``chunk_size`` is the number of instances per
    chunk, rounded down to whole substream blocks (at least one) for
    block kernels (None = the sweep's default: one chunk in-process, an
    even split across a pool).  Neither changes a result.  ``timeout_s``
    bounds each pooled chunk attempt (None = wait forever; serial
    execution is never preempted).  A chunk gets ``max_retries + 1``
    pooled attempts before it falls to the serial rung; ``backoff_s``
    is the base of the exponential wait before each pool rebuild.
    ``checkpoint_root`` enables chunk-granular persistence/resume;
    ``fault_plan`` injects deterministic faults (tests and the CI chaos
    smoke).  Completed :class:`RunReport` objects are appended to
    ``reports``, including the report carried by a
    :class:`SweepExecutionError`.
    """

    workers: int | None = None
    chunk_size: int | None = None
    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    checkpoint_root: str | Path | None = None
    fault_plan: FaultPlan | None = None
    reports: list["RunReport"] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 (or None), got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be >= 0")

    def backoff_for(self, rebuild: int) -> float:
        """Sleep before the ``rebuild``-th pool reconstruction [s]."""
        return min(
            self.backoff_s * _BACKOFF_FACTOR ** max(rebuild - 1, 0),
            _BACKOFF_CAP_S,
        )


@dataclass
class ChunkRecord:
    """Lifecycle of one chunk: status, attempts, failure taxonomy.

    ``status`` ends as ``ok`` (pooled/serial first-class execution),
    ``cached`` (loaded from a checkpoint), ``serial`` (recovered on the
    degradation rung), or ``failed``.  ``failures`` lists the taxonomy
    kind of every failed attempt, in order (see :data:`FAILURE_KINDS`);
    ``error`` names the last exception an attempt raised, if any.
    """

    index: int
    n_items: int
    status: str = "pending"
    attempts: int = 0
    wall_s: float = 0.0
    failures: tuple[str, ...] = ()
    error: str | None = None

    def record_failure(
        self, kind: str, wall_s: float = 0.0, exc: BaseException | None = None
    ) -> None:
        self.attempts += 1
        self.failures = self.failures + (kind,)
        self.wall_s += wall_s
        if exc is not None:
            lines = str(exc).splitlines()
            self.error = type(exc).__name__ + (f": {lines[0]}" if lines else "")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_items": self.n_items,
            "status": self.status,
            "attempts": self.attempts,
            "wall_s": self.wall_s,
            "failures": list(self.failures),
            "error": self.error,
        }


@dataclass
class RunReport:
    """Structured outcome of one supervised sweep run."""

    chunks: list[ChunkRecord]
    workers: int | None
    pool_rebuilds: int
    wall_s: float
    run_key: str | None = None
    checkpoint_dir: str | None = None

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def ok(self) -> bool:
        return all(c.status in ("ok", "cached", "serial") for c in self.chunks)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for chunk in self.chunks:
            out[chunk.status] = out.get(chunk.status, 0) + 1
        return out

    def failure_taxonomy(self) -> dict[str, int]:
        """Failure-kind histogram across every attempt of every chunk."""
        out: dict[str, int] = {}
        for chunk in self.chunks:
            for kind in chunk.failures:
                out[kind] = out.get(kind, 0) + 1
        return out

    def one_line(self) -> str:
        """Single-line summary for logs and the CLI's structured exit."""
        counts = self.counts()
        done = sum(counts.get(s, 0) for s in ("ok", "cached", "serial"))
        bits = [f"{done}/{self.n_chunks} chunks completed"]
        for status in ("cached", "serial", "failed"):
            if counts.get(status):
                bits.append(f"{counts[status]} {status}")
        taxonomy = self.failure_taxonomy()
        if taxonomy:
            bits.append(
                "failures: "
                + ", ".join(f"{k}={v}" for k, v in sorted(taxonomy.items()))
            )
        if self.pool_rebuilds:
            bits.append(f"{self.pool_rebuilds} pool rebuild(s)")
        errors = [c for c in self.chunks if c.status == "failed" and c.error]
        if errors:
            bits.append(f"chunk {errors[0].index} raised {errors[0].error}")
        return "; ".join(bits)

    def to_json(self) -> str:
        return json.dumps(
            {
                "workers": self.workers,
                "pool_rebuilds": self.pool_rebuilds,
                "wall_s": self.wall_s,
                "run_key": self.run_key,
                "checkpoint_dir": self.checkpoint_dir,
                "counts": self.counts(),
                "failure_taxonomy": self.failure_taxonomy(),
                "chunks": [c.to_dict() for c in self.chunks],
            },
            indent=2,
            sort_keys=True,
        )


class SweepExecutionError(RuntimeError):
    """An irrecoverable supervised run — with everything that *did* finish.

    ``report`` is the full :class:`RunReport`; ``partial`` maps chunk
    index to the salvaged result list of every chunk that completed
    (also checkpointed when a store is configured, so the run can be
    resumed after the cause is fixed).
    """

    def __init__(self, message: str, report: RunReport, partial: dict[int, list]):
        super().__init__(message)
        self.report = report
        self.partial = partial


# ---------------------------------------------------------------------------
# Merge-boundary validation.
# ---------------------------------------------------------------------------


def _chunk_valid(payload, expected: int, validate: Callable | None) -> bool:
    """Boundary check of one chunk result before it may merge.

    Structural schema first (a list of exactly ``expected`` entries),
    then the caller's per-entry validator; a validator that *raises* is
    a rejection, not a supervisor crash.
    """
    if not isinstance(payload, list) or len(payload) != expected:
        return False
    if validate is not None:
        for entry in payload:
            try:
                if not validate(entry):
                    return False
            except Exception:
                return False
    return True


# ---------------------------------------------------------------------------
# The supervisor.
# ---------------------------------------------------------------------------


def run_supervised(
    chunks: list,
    *,
    chunk_fn: Callable,
    expected_counts: list[int],
    policy: ExecutionPolicy | None = None,
    validate: Callable | None = None,
) -> tuple[list, RunReport]:
    """Execute ``chunk_fn`` over ``chunks`` under full supervision.

    Returns ``(flat results, report)`` with results in chunk order;
    raises :class:`SweepExecutionError` (report + salvaged chunks
    attached) if any chunk remains failed after the whole degradation
    ladder.  ``expected_counts[i]`` is the result-list length chunk
    ``i`` must produce; ``validate`` is an optional per-entry schema
    check applied at the merge boundary.  Chunks run on a pool when
    ``policy.workers`` > 1.  With a ``policy.checkpoint_root``, the
    checkpoint directory is keyed by the digests of all chunk specs.

    The ladder, per chunk: checkpoint hit -> pooled attempts (with
    timeout, retry, pool rebuild on crash) -> in-process serial rung ->
    failed.  Chunk results depend only on the chunk spec, so every rung
    produces bitwise-identical output.
    """
    policy = ExecutionPolicy() if policy is None else policy
    n = len(chunks)
    started = time.perf_counter()
    records = [ChunkRecord(index=i, n_items=expected_counts[i]) for i in range(n)]
    results: dict[int, list] = {}
    causes: dict[int, BaseException] = {}  # last exception raised per chunk

    def fail(i: int, kind: str, started_s: float, exc: BaseException) -> None:
        records[i].record_failure(kind, time.perf_counter() - started_s, exc)
        causes[i] = exc

    store = None
    if policy.checkpoint_root is not None:
        # A chunk spec holds the kernel, the payload, its parameter rows
        # and its seed substreams, so its digest is the whole identity
        # of that chunk; the run directory is keyed by all of them.
        digests = [fingerprint(chunk) for chunk in chunks]
        run_key = fingerprint(("sweep-run", _CHECKPOINT_VERSION, digests))
        store = CheckpointStore(policy.checkpoint_root, run_key)
        for i in range(n):
            cached = store.load(i, digests[i])
            if cached is not None and _chunk_valid(
                cached, expected_counts[i], validate
            ):
                results[i] = cached
                records[i].status = "cached"

    def finish(i: int, payload, wall_s: float, status: str) -> bool:
        """Validate at the merge boundary; True once the chunk is merged."""
        if not _chunk_valid(payload, expected_counts[i], validate):
            records[i].record_failure("corrupt", wall_s)
            return False
        records[i].attempts += 1
        records[i].wall_s += wall_s
        records[i].status = status
        results[i] = payload
        if store is not None:
            store.store(i, digests[i], payload)
        return True

    pending = [i for i in range(n) if i not in results]
    serial_queue: list[int] = []
    submissions = [0] * n
    pool_rebuilds = 0

    workers = policy.workers
    use_pool = bool(workers is not None and workers > 1 and pending)
    if use_pool:
        # Guard against supervisor stalls: every wave classifies at
        # least one outcome, so this bound is never reached by a run
        # that is making progress.
        max_waves = n * (policy.max_retries + 2) + 2
        wave = 0
        while pending and wave < max_waves:
            wave += 1
            if pool_rebuilds:
                time.sleep(policy.backoff_for(pool_rebuilds))
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {}
            for i in pending:
                fault = (
                    policy.fault_plan.fault_for(i, submissions[i])
                    if policy.fault_plan is not None
                    else None
                )
                submissions[i] += 1
                futures[i] = pool.submit(
                    _supervised_chunk, (chunk_fn, chunks[i], fault)
                )
            dirty = False
            wave_started = time.perf_counter()
            order = iter(pending)
            for i in order:
                t0 = time.perf_counter()
                try:
                    payload = futures[i].result(timeout=policy.timeout_s)
                except _FutureTimeout as exc:
                    fail(i, "timeout", t0, exc)
                    dirty = True
                    # Harvest siblings that DID finish before tearing
                    # the (possibly hung) pool down; the rest go back
                    # to pending without burning an attempt.
                    for j in order:
                        if futures[j].done():
                            t1 = time.perf_counter()
                            try:
                                sibling = futures[j].result(timeout=0)
                            except Exception as exc:
                                fail(j, _failure_kind(exc), t1, exc)
                            else:
                                finish(j, sibling, time.perf_counter() - t1, "ok")
                    break
                except BrokenExecutor as exc:
                    # The pool died under this chunk (worker crash /
                    # OOM kill).  Siblings' futures resolve instantly
                    # now — completed ones still carry their results.
                    fail(i, "crash", t0, exc)
                    dirty = True
                except Exception as exc:
                    fail(i, "error", t0, exc)
                else:
                    finish(i, payload, time.perf_counter() - t0, "ok")
            if dirty:
                pool_rebuilds += 1
                pool.shutdown(wait=False, cancel_futures=True)
                _LOG.warning(
                    "sweep pool torn down (wave %d, %.2fs): rebuilding for "
                    "%d unfinished chunk(s)",
                    wave,
                    time.perf_counter() - wave_started,
                    sum(1 for i in pending if i not in results),
                )
            else:
                pool.shutdown(wait=True)
            next_pending = []
            for i in pending:
                if i in results:
                    continue
                if len(records[i].failures) > policy.max_retries:
                    serial_queue.append(i)
                else:
                    next_pending.append(i)
            pending = next_pending
        serial_queue = sorted(set(serial_queue) | set(pending))
        serial_budget = 1  # last rung: one in-process attempt each
    else:
        serial_queue = list(pending)
        serial_budget = policy.max_retries + 1

    # -- the serial rung ----------------------------------------------------
    for i in serial_queue:
        degraded = use_pool  # reached here by falling off the pool ladder
        for attempt in range(serial_budget):
            if attempt and policy.backoff_s > 0.0:
                time.sleep(policy.backoff_for(attempt))
            fault = (
                policy.fault_plan.fault_for(i, submissions[i])
                if policy.fault_plan is not None
                else None
            )
            submissions[i] += 1
            t0 = time.perf_counter()
            try:
                handled, payload = _apply_inprocess_fault(fault)
                if not handled:
                    payload = chunk_fn(chunks[i])
            except Exception as exc:
                fail(i, "error", t0, exc)
                continue
            if finish(
                i, payload, time.perf_counter() - t0, "serial" if degraded else "ok"
            ):
                break
        if i not in results:
            records[i].status = "failed"

    report = RunReport(
        chunks=records,
        workers=workers,
        pool_rebuilds=pool_rebuilds,
        wall_s=time.perf_counter() - started,
        run_key=None if store is None else store.run_key,
        checkpoint_dir=None if store is None else str(store.directory),
    )
    policy.reports.append(report)
    if not report.ok:
        failed = [i for i in range(n) if records[i].status == "failed"]
        raise SweepExecutionError(
            f"supervised sweep failed: {report.one_line()}", report, results
        ) from next((causes[i] for i in failed if i in causes), None)
    flat = [entry for i in range(n) for entry in results[i]]
    return flat, report


def _failure_kind(exc: BaseException) -> str:
    """Taxonomy bucket of an exception raised by a chunk future."""
    if isinstance(exc, BrokenExecutor):
        return "crash"
    if isinstance(exc, _FutureTimeout):
        return "timeout"
    return "error"
