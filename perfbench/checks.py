"""Correctness checks on a pass's outputs, and their bitwise digest.

An *operation* is one artefact row, one Monte Carlo instance, one AC
corner or one AC sweep.  :func:`check` returns how many were attempted
and the name of every one that failed:

* artefact rows match ``tests/golden/<name>.json`` when that file
  exists, otherwise ``perfbench/snapshots/<name>.json`` — labels
  exactly, values to the tolerances of ``tests/test_golden.py``;
* a Monte Carlo instance fails when it is unconverged or fell back to
  the scalar path; a fixed sample of instances is re-checked for KCL
  (the MNA residual) through the reference stamp walk
  ``MNASystem.evaluate_dense``;
* an AC sweep is re-solved by the per-frequency loop oracle
  ``dense_frequency_loop`` at every ``AC_ORACLE_STRIDE``-th frequency;
* an AC corner fails when its operating point is unconverged.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import ACCorners, ACSweep, MonteCarlo, Rows, Table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
SNAPSHOT_DIR = Path(__file__).resolve().parent / "snapshots"

# tests/test_golden.py
RELATIVE_TOLERANCE = 1e-6
ABSOLUTE_TOLERANCE = 1e-12
WALL_CLOCK_MARKER = "[wall-clock]"

# Newton stops at |r| <= 1e-10 + 1e-9 |r0| (repro.circuit.solver); a
# transient step at a source edge starts from |r0| ~ 1, so converged
# instances reach ~1e-9.  A wrong solution misses by many decades.
MNA_TOLERANCE = 1e-8
AC_ORACLE_STRIDE = 30
AC_RELATIVE_TOLERANCE = 1e-9


def rows_as_json(rows) -> list[list]:
    """The golden-file row format: ``[label, value, ...]``."""
    return [
        [row[0], *[float(v) if isinstance(v, (int, float)) else str(v) for v in row[1:]]]
        for row in rows
    ]


def reference_path(name: str) -> Path:
    golden = GOLDEN_DIR / f"{name}.json"
    return golden if golden.exists() else SNAPSHOT_DIR / f"{name}.json"


def _close(current, expected) -> bool:
    if isinstance(current, str) or isinstance(expected, str):
        return current == expected
    if math.isnan(current) or math.isnan(expected):
        return math.isnan(current) and math.isnan(expected)
    return abs(current - expected) <= max(
        RELATIVE_TOLERANCE * abs(expected), ABSOLUTE_TOLERANCE
    )


def _check_rows(item: Rows, failures: list[str]) -> int:
    rows = rows_as_json(item.rows)
    path = reference_path(item.name)
    if not path.exists():
        failures.append(f"{item.name}: no reference rows at {path.relative_to(ROOT)}")
        return max(1, len(rows))
    expected = json.loads(path.read_text())
    if [row[0] for row in rows] != [row[0] for row in expected]:
        failures.append(f"{item.name}: row labels differ from {path.name}")
        return max(len(rows), len(expected))
    for current, reference in zip(rows, expected):
        label = current[0]
        if WALL_CLOCK_MARKER in label:
            ok = all(isinstance(v, float) and v > 0.0 for v in current[1:])
        else:
            ok = len(current) == len(reference) and all(
                _close(a, b) for a, b in zip(current[1:], reference[1:])
            )
        if not ok:
            failures.append(f"{item.name}: row {label!r} = {current[1:]} != {reference[1:]}")
    return len(rows)


def _kcl_sample(n: int) -> list[int]:
    return sorted({0, n // 2, n - 1})


def _check_dc_kcl(item: MonteCarlo, i: int) -> float:
    from repro.circuit.sweep import perturbed_circuit

    system = perturbed_circuit(item.circuit, item.variation, i).build_system()
    residual, _ = system.evaluate_dense(item.result.x[i])
    return float(np.max(np.abs(residual)))


def _check_transient_kcl(item: MonteCarlo, i: int) -> float:
    """Replays instance ``i``'s trajectory through the reference walk."""
    from repro.circuit.sweep import perturbed_circuit

    system = perturbed_circuit(item.circuit, item.variation, i).build_system()
    samples = item.result.samples[i]
    dt = item.result.dt_s
    residual, _ = system.evaluate_dense(samples[0], time_s=0.0)
    worst = float(np.max(np.abs(residual)))
    state: dict = {}
    for k in range(1, samples.shape[0]):
        residual, _ = system.evaluate_dense(
            samples[k],
            time_s=k * dt,
            dt_s=dt,
            previous_x=samples[k - 1],
            integrator="trapezoidal",
            state=state,
        )
        worst = max(worst, float(np.max(np.abs(residual))))
        system.update_capacitor_state(
            samples[k], samples[k - 1], dt, "trapezoidal", state
        )
    return worst


def _check_monte_carlo(item: MonteCarlo, failures: list[str], kcl: bool) -> int:
    result = item.result
    bad = ~result.converged
    if item.transient:
        bad = bad | result.fallback
    for i in np.flatnonzero(bad):
        reason = "unconverged" if not result.converged[i] else "fell back"
        failures.append(f"{item.label} instance {i}: {reason}")
    if kcl:
        checker = _check_transient_kcl if item.transient else _check_dc_kcl
        for i in _kcl_sample(result.n_instances):
            if bad[i]:
                continue
            worst = checker(item, i)
            if not worst <= MNA_TOLERANCE:
                failures.append(f"{item.label} instance {i}: MNA residual {worst:.3e}")
    return result.n_instances


def _check_ac_sweep(item: ACSweep, failures: list[str]) -> int:
    from repro.circuit.ac import dense_frequency_loop

    conductance, capacitance, rhs = item.plan.dense_system()
    picks = slice(0, None, AC_ORACLE_STRIDE)
    reference = dense_frequency_loop(
        conductance, capacitance, rhs, item.frequencies[picks]
    )
    error = float(
        np.max(np.abs(item.samples[picks] - reference)) / np.max(np.abs(reference))
    )
    if not error <= AC_RELATIVE_TOLERANCE:
        failures.append(f"{item.label}: {error:.3e} relative error vs the loop oracle")
    return 1


def _check_ac_corners(item: ACCorners, failures: list[str]) -> int:
    converged = item.result.converged
    for i in np.flatnonzero(~converged):
        failures.append(f"{item.label} corner {i}: unconverged")
    return int(converged.size)


def _check_table(item: Table, failures: list[str]) -> int:
    if not np.all(np.isfinite(item.surrogate.table)):
        failures.append(f"{item.label}: surrogate table has non-finite entries")
    return 1


def check(outputs: list, deep: bool) -> tuple[int, list[str]]:
    """``(attempted, failures)``; ``deep`` adds the oracle re-checks."""
    failures: list[str] = []
    attempted = 0
    for item in outputs:
        if isinstance(item, Rows):
            attempted += _check_rows(item, failures)
        elif isinstance(item, MonteCarlo):
            attempted += _check_monte_carlo(item, failures, kcl=deep)
        elif isinstance(item, ACSweep):
            attempted += _check_ac_sweep(item, failures) if deep else 1
        elif isinstance(item, ACCorners):
            attempted += _check_ac_corners(item, failures)
        elif isinstance(item, Table):
            attempted += _check_table(item, failures)
        else:
            raise TypeError(f"unknown output {type(item).__name__}")
    return attempted, failures


def digest(outputs: list) -> str:
    """SHA-256 over every output's exact bits (for traced-vs-untraced)."""
    h = hashlib.sha256()
    for item in outputs:
        if isinstance(item, Rows):
            h.update(repr(item.rows).encode())
        elif isinstance(item, MonteCarlo):
            data = item.result.samples if item.transient else item.result.x
            h.update(np.ascontiguousarray(data).tobytes())
            h.update(item.result.converged.tobytes())
        elif isinstance(item, ACSweep):
            h.update(np.ascontiguousarray(item.samples).tobytes())
        elif isinstance(item, ACCorners):
            h.update(np.ascontiguousarray(item.result.samples).tobytes())
        elif isinstance(item, Table):
            h.update(np.ascontiguousarray(item.surrogate.table).tobytes())
    return h.hexdigest()
