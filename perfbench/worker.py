"""One benchmark process: ``python3 perfbench/worker.py '<spec JSON>'``.

``perfbench/run.py`` starts every worker as a fresh interpreter with
pinned BLAS/OpenMP threads and a private ``REPRO_SURROGATE_CACHE``, so
no in-process cache survives from one measurement to the next.  The
spec names the workload, the phase and where to write the result:

* ``fill``  — compile the reference surrogate into the cache and exit;
* ``setup`` — set the workload up, report the set-up time and exit;
* ``run``   — set up, then run timed passes (one for the fresh-process
  workloads; ``circuit_engines`` repeats until ``seconds`` of passes),
  check every output and report times, checks, digest and peak RSS.

With ``trace`` the layer wrappers of :mod:`tracing` are installed
before set-up; they are paused while outputs are checked.  With
``probe`` a :class:`HostProbe` times set-up and every case a second
time in reference-host seconds.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np


# The host's speed drifts by +-30 % within seconds and minutes as other
# tenants load it, independently on each vCPU, and CPU time drifts with
# wall time.  ``HostProbe`` times a fixed kernel that does not touch
# ``repro`` around every case and, on a SIGALRM timer, during it; a
# case's reference time is its wall time rescaled to the speed at which
# the kernel takes ``PROBE_REFERENCE_S``.  The kernel mixes what the
# workloads do, in about equal parts: interpreter loops, small-matrix
# numpy calls and numpy passes over arrays larger than L2.
PROBE_REFERENCE_S = 0.006
PROBE_PERIOD_S = 0.25
BRACKET_SAMPLES = 8
_PROBE_MATRIX = np.eye(16) * 16.0 + np.arange(256.0).reshape(16, 16) / 256.0
_PROBE_VECTOR = np.ones(16)
_PROBE_ARRAY = np.linspace(-5.0, 5.0, 300_000)
# Bound before a traced worker wraps ``np.linalg.solve``.
_solve = np.linalg.solve


def _probe_kernel() -> None:
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(225):
        _solve(_PROBE_MATRIX, _PROBE_VECTOR)
        np.exp(_PROBE_MATRIX).sum()
    for _ in range(4):
        (np.exp(_PROBE_ARRAY) * _PROBE_ARRAY).sum()


class HostProbe:
    """Samples the host's current speed around and during a timed call."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_signal) -> None:
        start = time.monotonic()
        _probe_kernel()
        self.samples.append(time.monotonic() - start)

    def timed(self, run, since: float | None = None) -> tuple[float, float]:
        """``(wall_s, reference_s)`` of ``run()``, probe time excluded.

        ``since`` (a ``time.monotonic`` stamp) starts the clock before
        the call, e.g. at interpreter spawn; the probe then samples only
        during and after it.
        """
        self.samples = []
        if since is None:
            for _ in range(BRACKET_SAMPLES):
                self._sample()
            since = time.monotonic()
        before = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.monotonic() - since
            signal.signal(signal.SIGALRM, previous)
        wall_s = elapsed - sum(self.samples[before:])
        for _ in range(BRACKET_SAMPLES):
            self._sample()
        return wall_s, wall_s * PROBE_REFERENCE_S / statistics.fmean(self.samples)


def _cache_failures(spec: dict) -> list[str]:
    from repro.devices.surrogate import surrogate_cache_dir

    cache = Path(spec["cache"])
    if surrogate_cache_dir() != cache:
        return [f"surrogate cache resolves to {surrogate_cache_dir()}, not {cache}"]
    if spec["cold"] and any(cache.iterdir()):
        return [f"cold surrogate cache {cache.name} is not empty at start"]
    return []


def _run(spec: dict) -> dict:
    from checks import check, digest
    from workloads import WORKLOADS

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
        tracer.active = True
    failures = _cache_failures(spec)
    workload = WORKLOADS[spec["workload"]](spec["seed"])
    # The worker whose spans are reported runs without the probe, which
    # would otherwise add its samples to the self time of open spans.
    probe = HostProbe() if spec["probe"] else None
    if probe is None:
        workload.setup()
        setup_s = setup_ref_s = time.monotonic() - spec["t_spawn"]
    else:
        setup_s, setup_ref_s = probe.timed(workload.setup, since=spec["t_spawn"])
    if spec["phase"] == "setup":
        return {"setup_s": setup_s, "setup_ref_s": setup_ref_s}

    passes: list[dict] = []
    attempted = 0
    first_digest = None
    measured = 0.0
    while True:
        case_s: dict[str, float] = {}
        case_ref_s: dict[str, float] = {}
        outputs: list = []
        for name, items in workload.cases():

            def run(items=items):
                for item in items:
                    outputs.extend(item())

            if probe is None:
                start = time.monotonic()
                run()
                case_s[name] = time.monotonic() - start
            else:
                case_s[name], case_ref_s[name] = probe.timed(run)
        wall_s = sum(case_s.values())
        measured += wall_s
        if tracer is not None:
            tracer.active = False
        n_ops, failed = check(outputs, deep=not passes)
        pass_digest = digest(outputs)
        if tracer is not None:
            tracer.active = True
        attempted += n_ops
        failures += [f"pass {len(passes)}: {line}" for line in failed]
        if first_digest is None:
            first_digest = pass_digest
        elif pass_digest != first_digest:
            failures.append(f"pass {len(passes)}: outputs differ from pass 0")
        passes.append(
            {
                "wall_s": wall_s,
                "wall_ref_s": sum(case_ref_s.values()),
                "case_s": case_s,
                "case_ref_s": case_ref_s,
            }
        )
        if (
            workload.single_pass
            or len(passes) >= spec["max_passes"]
            or measured >= spec["seconds"]
        ):
            break

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "passes": passes,
        "attempted": attempted,
        "failures": failures,
        "digest": first_digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.active = False
        result["layers"] = tracer.metrics()
        if "trace_file" in spec:
            tracer.write(
                spec["trace_file"], {"workload": spec["workload"], "seed": spec["seed"]}
            )
    return result


def _fill(spec: dict) -> dict:
    from repro.experiments.cascade import physical_saturating_fet

    failures = _cache_failures(spec)
    physical_saturating_fet()
    return {"failures": failures}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = _fill(spec) if spec["phase"] == "fill" else _run(spec)
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
