"""Census of the functions in ``src/repro`` that no workload runs.

Runs every CLI experiment, the ``--physical`` runs, two ``--resume`` runs,
the examples and one pass of each perfbench workload under ``sys.setprofile``
in a fresh interpreter, on an empty surrogate cache and again warm.  Prints
the lines of the top-level functions and methods neither pass entered, per
module outside ``repro.circuit``/``repro.cli``/``repro.lint``, and exits 1
above ``CEILING``.  Run: ``PYTHONPATH=src python benchmarks/census.py``.
"""

import ast
import contextlib
import io
import multiprocessing
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EXCLUDED = ("circuit", "cli.py", "lint")
CEILING = 187


def _workloads(scratch: str) -> None:
    from repro.cli import EXPERIMENTS, PHYSICAL_EXPERIMENTS, RESUMABLE_EXPERIMENTS, main

    for runner in [r for _, r in EXPERIMENTS.values()] + [*PHYSICAL_EXPERIMENTS.values()]:
        runner()
    for _ in range(2):  # the second run reads the first one's checkpoints
        main([*RESUMABLE_EXPERIMENTS, "--resume", os.path.join(scratch, "resume")])
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import DEFAULT_SEED, WORKLOADS

    for workload_class in WORKLOADS.values():
        workload = workload_class(DEFAULT_SEED)
        workload.setup()
        for _, items in workload.cases():
            for item in items:
                item()


def _one_pass(cache_dir: str) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object one full pass entered."""
    os.environ["REPRO_SURROGATE_CACHE"] = cache_dir
    reached: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((os.path.realpath(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            _workloads(scratch)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return reached


def _functions(path: Path):
    """``(first line, line count)`` of every top-level function and method."""
    scopes = [ast.parse(path.read_text())]
    while scopes:
        for node in scopes.pop().body:
            if isinstance(node, ast.ClassDef):
                scopes.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield first, node.end_lineno - first + 1


def main() -> int:
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as cache_dir:
        for _ in ("cold", "warm"):
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                reached |= pool.apply(_one_pass, (cache_dir,))
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] in EXCLUDED:
            continue
        unreached = sum(n for first, n in _functions(path) if (str(path), first) not in reached)
        if unreached:
            print(f"{unreached:6d}  {'.'.join(('repro',) + relative.with_suffix('').parts)}")
        total += unreached
    print(f"{total:6d}  unreached function-lines (ceiling {CEILING})")
    return 1 if total > CEILING else 0


if __name__ == "__main__":
    raise SystemExit(main())
