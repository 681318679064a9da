"""Golden-file regression net over the CLI experiment outputs.

Each snapshot under ``tests/golden/`` stores the exact ``(label,
value...)`` rows the CLI experiment registry produces — the same rows
``python -m repro <experiment>`` prints.  The suite holds the current
code to those committed numbers with tight tolerances, so large
refactors (like the batched sweep engine) stay bitwise-honest about the
artefacts they claim not to change.

After an *intentional* output change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and commit the refreshed JSON alongside the change that explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every CLI experiment is pinned, and each ``--physical`` run (the same
# artefact on the surrogate-compiled ballistic CNT-FET) as
# ``<name>_physical``; an experiment added to the registry without its
# golden file fails ``test_golden_files_are_committed``.
GOLDEN_RUNNERS = {
    **{name: runner for name, (_, runner) in EXPERIMENTS.items()},
    **{f"{name}_physical": runner for name, runner in PHYSICAL_EXPERIMENTS.items()},
}

# Tight by design: these runs are deterministic (fixed seeds, fixed
# grids); the relative slack only absorbs BLAS/libm rounding drift.
RELATIVE_TOLERANCE = 1e-6
ABSOLUTE_TOLERANCE = 1e-12

# Rows whose label carries this marker are machine-dependent timings
# (the surrogate speedup report): their labels are pinned, their values
# are only required to be finite and positive.
from repro.experiments.surrogate_report import WALL_CLOCK_SUFFIX as WALL_CLOCK_MARKER


def _rows_as_json(rows) -> list[list]:
    return [[row[0], *[float(v) for v in row[1:]]] for row in rows]


@pytest.mark.parametrize("name", GOLDEN_RUNNERS)
def test_cli_output_matches_golden(name, request):
    rows = _rows_as_json(GOLDEN_RUNNERS[name]())
    path = GOLDEN_DIR / f"{name}.json"

    if request.config.getoption("--update-golden", default=False):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n")
        pytest.skip(f"rewrote {path.name}")

    assert path.exists(), (
        f"missing golden file {path}; create it with "
        "pytest tests/test_golden.py --update-golden"
    )
    golden = json.loads(path.read_text())
    assert [row[0] for row in rows] == [row[0] for row in golden], (
        f"{name}: row labels changed — update the golden file if intentional"
    )
    for current, expected in zip(rows, golden):
        if WALL_CLOCK_MARKER in current[0]:
            assert all(v > 0.0 and v == v for v in current[1:]), (
                f"{name}: wall-clock row {current[0]!r} is not a positive time"
            )
            continue
        assert current[1:] == pytest.approx(
            expected[1:], rel=RELATIVE_TOLERANCE, abs=ABSOLUTE_TOLERANCE, nan_ok=True
        ), f"{name}: row {current[0]!r} drifted from golden"


def test_golden_files_are_committed():
    """Every snapshotted experiment has its golden file in the tree."""
    missing = [
        name
        for name in GOLDEN_RUNNERS
        if not (GOLDEN_DIR / f"{name}.json").exists()
    ]
    assert not missing, f"golden files missing for: {missing}"
