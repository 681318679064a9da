"""End-to-end benchmark of the paper-reproduction package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_physics --seed 20140314 \\
        --seconds 40 --trace 0

Workloads (see ``perfbench/README.md``): ``paper_physics``,
``surrogate_cold`` and ``circuit_engines``.  Every measurement runs in a
fresh worker interpreter (``perfbench/worker.py``) with BLAS/OpenMP
threads pinned to one and a private surrogate cache under
``perfbench/out/``; nothing is read from or written to
``~/.cache/repro-surrogates``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
``SETUP_SAMPLES`` workers) and ``wall_ref_s`` (median pass), both
rescaled to the reference host speed (see ``worker.HostProbe``), and
``peak_rss_mb``.  ``--trace 1`` runs two traced workers and one
untraced worker, checks that the traced outputs are bitwise those of
the untraced one and that every count repeats exactly, and reports the
per-layer metrics of :mod:`tracing` plus ``trace.overhead_s``.  The
Chrome trace and a JSON record with run metadata land in
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOAD_NAMES = ("paper_physics", "surrogate_cold", "circuit_engines")
DEFAULT_SEED = 20140314
SETUP_SAMPLES = 3
# Every invocation must finish within 180 s; workers get what is left.
DEADLINE_S = 170.0
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (not an output-check failure)."""


def source_digest() -> str:
    """SHA-256 of every file under ``src/`` (the code under test)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()
    }


class Runner:
    """Spawns workers under one temp dir and one deadline."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def spawn(self, *requests: dict) -> list[dict]:
        """Run one worker per request, side by side; returns their results.

        A request holds ``phase``, ``cache`` and ``cold``, and optionally
        ``trace`` and ``max_passes``.
        """
        home = self.tmp / "home"
        home.mkdir(exist_ok=True)
        started = []
        try:
            for request in requests:
                self.count += 1
                tag = f"{request['phase']}-{self.count}"
                env = {
                    **os.environ,
                    **THREAD_PINS,
                    "PYTHONPATH": str(SRC),
                    "PYTHONHASHSEED": "0",
                    "REPRO_SURROGATE_CACHE": str(request["cache"]),
                    "HOME": str(home),
                    "TMPDIR": str(self.tmp),
                }
                spec = {
                    "workload": self.args.workload,
                    "seed": self.args.seed,
                    "seconds": self.args.seconds,
                    "trace": False,
                    "probe": True,
                    "max_passes": 1_000_000,
                    **request,
                    "cache": str(request["cache"]),
                    "out": str(self.tmp / f"{tag}.json"),
                    "t_spawn": time.monotonic(),
                }
                log = open(self.tmp / f"{tag}.log", "w")
                started.append((tag, spec, log, subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                    cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                )))
            for tag, _, _, process in started:
                try:
                    process.wait(timeout=max(0.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired as error:
                    raise BenchmarkError(f"{tag} worker exceeded the deadline") from error
        finally:
            for _, _, log, process in started:
                if process.poll() is None:
                    process.kill()
                    process.wait()
                log.close()
        results = []
        for tag, spec, log, process in started:
            if process.returncode != 0:
                output = Path(log.name).read_text()[-4000:]
                raise BenchmarkError(f"{tag} worker exited {process.returncode}:\n{output}")
            results.append(json.loads(Path(spec["out"]).read_text()))
        return results

    def cold_cache(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))

    def warm_cache(self) -> Path:
        """Surrogate cache filled by this source tree, shared by its runs.

        Keyed by the digest of ``src/``: the cache key of
        ``compile_surrogate`` does not cover solver code, so a cache
        filled by other code must never be read.
        """
        target = OUT / f"warm-{source_digest()[:16]}"
        if target.is_dir():
            return target
        staging = Path(tempfile.mkdtemp(prefix="warm-fill-", dir=OUT))
        [result] = self.spawn({"phase": "fill", "cache": staging, "cold": True})
        if result["failures"] or not any(staging.iterdir()):
            shutil.rmtree(staging, ignore_errors=True)
            raise BenchmarkError(f"warm cache fill failed: {result['failures']}")
        os.rename(staging, target)
        return target


def median_pass(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(runner: Runner, workload: str, trace: bool) -> tuple[dict, dict]:
    """``(metrics, record)`` of one invocation; record holds the details."""
    warm = runner.warm_cache() if workload == "circuit_engines" else None

    def request(phase: str, **options) -> dict:
        cache = warm if warm is not None else runner.cold_cache()
        return {"phase": phase, "cache": cache, "cold": warm is None, **options}

    before = _snapshot(warm) if warm is not None else None
    failures: list[str] = []
    if not trace:
        setups = [runner.spawn(request("setup"))[0] for _ in range(SETUP_SAMPLES - 1)]
        [main] = runner.spawn(request("run"))
        setups.append(main)
        metrics = {
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "wall_ref_s": median_pass(main["passes"], "wall_ref_s"),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        record = {
            "setup_samples": [(s["setup_s"], s["setup_ref_s"]) for s in setups],
            "main": main,
        }
    else:
        # The first traced worker runs alone, without the host probe, and
        # gives the per-layer times.  The untraced and the second traced
        # worker then run side by side; the overhead compares their
        # probe-rescaled pass times.
        trace_file = OUT / f"trace-{workload}-seed{runner.args.seed}.json"
        [first] = runner.spawn(
            request(
                "run", trace=True, probe=False, max_passes=1, trace_file=str(trace_file)
            )
        )
        main, second = runner.spawn(
            request("run", max_passes=1), request("run", trace=True, max_passes=1)
        )
        traced = [first, second]
        for k, other in enumerate(traced):
            if other["digest"] != main["digest"]:
                failures.append(f"traced run {k}: outputs differ from the untraced run")
            failures += [f"traced run {k}: {line}" for line in other["failures"]]
        counts = [
            {k: v for k, v in t["layers"].items() if not k.endswith("_s")} for t in traced
        ]
        if counts[0] != counts[1]:
            differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            failures.append(f"counts differ across traced runs: {differing}")
        metrics = dict(first["layers"])
        metrics["trace.overhead_s"] = (
            second["passes"][0]["wall_ref_s"] - main["passes"][0]["wall_ref_s"]
        )
        record = {"main": main, "traced": traced}
    failures = main["failures"] + failures
    if warm is not None and _snapshot(warm) != before:
        failures.append("warm surrogate cache changed during the run")
    record["failures"] = failures
    return metrics, record


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    return "s" if name.endswith("_s") else "count"


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def report(metrics: dict, record: dict, meta: dict) -> None:
    main = record["main"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    for k, p in enumerate(main["passes"]):
        for key, wall in (("case_s", "wall_s"), ("case_ref_s", "wall_ref_s")):
            if p.get(key):
                cases = "  ".join(f"{n}={v:.4f}" for n, v in p[key].items())
                print(f"pass {k} {key}: {wall}={p[wall]:.4f}  {cases}")
    if "setup_samples" in record:
        raw_setup = statistics.median(raw for raw, _ in record["setup_samples"])
        raw_wall = median_pass(main["passes"], "wall_s")
        print(f"  {'setup_s (raw)':28s} {raw_setup:14.6g} s")
        print(f"  {'wall_s (raw, median pass)':28s} {raw_wall:14.6g} s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name)}")
    attempted = main["attempted"]
    failed = len(record["failures"])
    print(f"  {'fail_frac':28s} {failed / max(attempted, 1):14.6g} fraction")
    for line in record["failures"]:
        print(f"FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(BENCH_DIR, maxlevels=0, quiet=2)

    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        metrics, record = measure(Runner(args, tmp), args.workload, bool(args.trace))
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta = run_metadata(args)
    report(metrics, record, meta)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"metadata": meta, "metrics": metrics, **record}, indent=1)
    )
    failed = len(record["failures"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": record["main"]["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
