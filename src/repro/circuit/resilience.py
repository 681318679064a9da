"""Fault-tolerant sweep execution: one supervisor, chunk checkpoints.

The paper's argument is imperfection tolerance — yield under stuck-at
faults — yet a plain ``ProcessPoolExecutor.map`` over Monte Carlo
chunks is all-or-nothing: one worker segfault or OOM kill raises
``BrokenProcessPool`` and the entire run is lost.  This module gives
:class:`repro.circuit.sweep.SweepPlan` the same property the circuits
under study are measured for — graceful degradation.
:func:`run_supervised` is the only sweep executor in the package:
every ``SweepPlan.run`` (and so every circuit Monte Carlo run) goes
through it, in-process or on a pool, and one :class:`ExecutionPolicy`
(workers, chunk size, checkpoint root) describes how.

* **Supervised execution** (:func:`run_supervised`): chunks are
  submitted as individual futures.  The one failure a retry can
  mend is a dead worker: a broken pool is rebuilt (with a short
  exponential backoff) and the unfinished chunks resubmitted, the
  breakage charged once, to the earliest of them; a chunk charged
  :data:`POOL_ATTEMPTS` times falls down one rung to in-process
  execution.  A chunk that raises, or whose payload fails the
  merge-boundary check, fails on its first attempt — rerunning it
  would only repeat the same answer.  Every outcome is recorded in a
  :class:`RunReport` (per-chunk status, attempts, timings, failure
  taxonomy, the last exception of a failed chunk) and an
  irrecoverable run raises :class:`SweepExecutionError` carrying the
  report plus every salvaged chunk, chained from the failed chunk's
  last exception.
* **Chunk checkpoint/resume** (:class:`CheckpointStore`): completed
  chunk results are atomically persisted
  (:func:`repro.store.atomic_write_bytes`, the writer the surrogate
  disk cache shares) into a run directory keyed by the
  :func:`repro.store.fingerprint` digests of the run's chunk specs
  (kernel, payload, parameter rows, seed substreams).  A run killed
  mid-flight resumes by loading finished chunks and computing only the
  rest; an unreadable chunk file is a miss, never an error.
* **Merge-boundary validation**: a chunk's payload is validated
  *before* it is merged (result-list shape plus an optional per-entry
  schema check), so a malformed payload fails its chunk at the
  boundary instead of being patched downstream.

Why recovery is *provably* correct here: chunk results depend only on
the chunk's spec (parameter rows plus position-keyed
``SeedSequence.spawn`` substreams), never on which process executes it
or on the attempt number.  A resubmitted, serially-degraded or resumed
chunk is therefore bitwise identical to the pooled original — the
recovery tests assert it, injecting worker crashes, raises and
malformed entries through their own sweep kernels.
"""

from __future__ import annotations

import json
import logging
import pickle
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.store import atomic_write_bytes, fingerprint

__all__ = [
    "ExecutionPolicy",
    "CheckpointStore",
    "ChunkRecord",
    "RunReport",
    "SweepExecutionError",
    "run_supervised",
]

_LOG = logging.getLogger(__name__)

#: Failure taxonomy recorded per attempt in :class:`ChunkRecord.failures`.
FAILURE_KINDS = ("crash", "error", "corrupt")

#: On-disk checkpoint format version; bumping invalidates old run dirs.
_CHECKPOINT_VERSION = 1

#: Pool breakages a chunk may be charged before it runs in-process.
POOL_ATTEMPTS = 3
#: Sleep before the first pool rebuild [s]; it doubles per rebuild.
_BACKOFF_S = 0.05
#: Upper bound on the backoff sleep between pool rebuilds [s].
_BACKOFF_CAP_S = 2.0


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
    """How one sweep run executes: pool, chunking and checkpoints.

    ``workers`` > 1 runs chunks on a process pool of that size (None or
    1 = in-process).  ``chunk_size`` is the number of instances per
    chunk, rounded down to whole substream blocks (at least one) for
    block kernels (None = the sweep's default: one chunk in-process, an
    even split across a pool).  Neither changes a result.
    ``checkpoint_root`` enables chunk-granular persistence/resume.
    Completed :class:`RunReport` objects are appended to ``reports``,
    including the report carried by a :class:`SweepExecutionError`.
    """

    workers: int | None = None
    chunk_size: int | None = None
    checkpoint_root: str | Path | None = None
    reports: list["RunReport"] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1 (or None), got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk_size}")


@dataclass
class ChunkRecord:
    """Lifecycle of one chunk: status, attempts, failure taxonomy.

    ``status`` ends as ``ok`` (pooled/serial first-class execution),
    ``cached`` (loaded from a checkpoint), ``serial`` (recovered on the
    degradation rung), or ``failed``.  ``failures`` lists the taxonomy
    kind of every failed attempt, in order (see :data:`FAILURE_KINDS`);
    ``attempts`` counts the charged ones plus the one that merged (a
    resubmission after another chunk broke the pool is free).
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


def _submit(pool: ProcessPoolExecutor, chunk_fn: Callable, spec) -> Future:
    """``pool.submit``, or an already-failed future if the pool broke."""
    try:
        return pool.submit(chunk_fn, spec)
    except BrokenExecutor as exc:
        # A worker died while the wave was still being submitted.
        future: Future = Future()
        future.set_exception(exc)
        return future


def run_supervised(
    chunks: list,
    *,
    chunk_fn: Callable,
    expected_counts: list[int],
    policy: ExecutionPolicy | None = None,
    validate: Callable | None = None,
) -> list:
    """Execute ``chunk_fn`` over ``chunks`` under supervision.

    Returns the flat results in chunk order; the run's
    :class:`RunReport` is appended to ``policy.reports``.  Raises
    :class:`SweepExecutionError` (report + salvaged chunks attached) if
    any chunk fails.  ``expected_counts[i]`` is the result-list length
    chunk ``i`` must produce; ``validate`` is an optional per-entry
    schema check applied at the merge boundary.  Chunks run on a pool
    when ``policy.workers`` > 1.  With a ``policy.checkpoint_root``,
    the checkpoint directory is keyed by the digests of all chunk specs.

    The ladder, per chunk: checkpoint hit -> pooled attempts (a pool
    breakage is charged to the earliest unfinished chunk; the others
    resubmit free) -> one in-process attempt -> failed.  A raise or a
    malformed payload fails the chunk on the attempt that produced it.
    Chunk results depend only on the chunk spec, so every rung produces
    bitwise-identical output.
    """
    policy = ExecutionPolicy() if policy is None else policy
    n = len(chunks)
    started = time.perf_counter()
    records = [ChunkRecord(index=i, n_items=expected_counts[i]) for i in range(n)]
    results: dict[int, list] = {}
    causes: dict[int, BaseException] = {}  # last exception raised per chunk

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

    def settle(i: int, t0: float, status: str, payload=None, exc=None) -> None:
        """Merge one finished attempt at the boundary, or fail its chunk."""
        wall_s = time.perf_counter() - t0
        if exc is None and _chunk_valid(payload, expected_counts[i], validate):
            records[i].attempts += 1
            records[i].wall_s += wall_s
            records[i].status = status
            results[i] = payload
            if store is not None:
                store.store(i, digests[i], payload)
            return
        records[i].record_failure("corrupt" if exc is None else "error", wall_s, exc)
        records[i].status = "failed"
        if exc is not None:
            causes[i] = exc

    pending = [i for i in range(n) if i not in results]
    pool_rebuilds = 0
    workers = policy.workers
    pooled = bool(workers is not None and workers > 1 and pending)
    while pooled and pending:
        if pool_rebuilds:
            time.sleep(min(_BACKOFF_S * 2.0 ** (pool_rebuilds - 1), _BACKOFF_CAP_S))
        broken = False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [_submit(pool, chunk_fn, chunks[i]) for i in pending]
            for i, future in zip(pending, futures):
                t0 = time.perf_counter()
                try:
                    payload = future.result()
                except BrokenExecutor as exc:
                    # The pool died (worker crash / OOM kill).  Siblings
                    # that finished first still carry their results; of
                    # the rest, only the earliest is charged the breakage.
                    if not broken:
                        wall_s = time.perf_counter() - t0
                        records[i].record_failure("crash", wall_s, exc)
                        causes[i] = exc
                        broken = True
                except Exception as exc:
                    settle(i, t0, "ok", exc=exc)
                else:
                    settle(i, t0, "ok", payload)
        if broken:
            pool_rebuilds += 1
            _LOG.warning(
                "sweep pool broke (rebuild %d): resubmitting %d unfinished chunk(s)",
                pool_rebuilds,
                sum(1 for i in pending if records[i].status == "pending"),
            )
        pending = [
            i
            for i in pending
            if records[i].status == "pending"
            and len(records[i].failures) < POOL_ATTEMPTS
        ]

    # -- the in-process rung: every chunk without a pool, and each chunk
    # that used up its pooled attempts, runs once here.
    status = "serial" if pooled else "ok"
    for i in range(n):
        if records[i].status != "pending":
            continue
        t0 = time.perf_counter()
        try:
            payload = chunk_fn(chunks[i])
        except Exception as exc:
            settle(i, t0, status, exc=exc)
        else:
            settle(i, t0, status, payload)

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
    return [entry for i in range(n) for entry in results[i]]
