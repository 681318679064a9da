"""Write the reference rows of artefacts that have no golden file.

Usage (from the repository root)::

    python3 perfbench/snapshot.py [NAME ...]

Runs the named artefacts (default: every artefact without a
``tests/golden/<name>.json``) in this process and writes their rows to
``perfbench/snapshots/<name>.json`` in the golden-file format.  Use it
only on a commit whose outputs are known good; the benchmark prefers a
golden file whenever one exists.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv: list[str]) -> int:
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="snapshot-cache-", dir=BENCH_DIR / "out")
    os.environ["REPRO_SURROGATE_CACHE"] = cache
    sys.path.insert(0, str(ROOT / "src"))

    from checks import SNAPSHOT_DIR, reference_path, rows_as_json
    from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS
    from workloads import PAPER_ARTEFACTS

    runners = {name: EXPERIMENTS[name][1] for name in PAPER_ARTEFACTS}
    runners.update(
        {f"{name}_physical": runner for name, runner in PHYSICAL_EXPERIMENTS.items()}
    )
    names = argv or [
        name for name in runners if reference_path(name).parent == SNAPSHOT_DIR
    ]
    SNAPSHOT_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            rows = rows_as_json(runners[name]())
            (SNAPSHOT_DIR / f"{name}.json").write_text(json.dumps(rows, indent=1) + "\n")
            print(f"wrote snapshots/{name}.json ({len(rows)} rows)")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
