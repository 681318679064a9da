"""Census of the functions in ``src/repro`` that no workload runs.

Runs every CLI experiment, the ``--physical`` runs, two ``--resume`` runs,
the examples and one pass of each perfbench workload under ``sys.setprofile``
in a fresh interpreter, on an empty surrogate cache and again warm.  Prints
the lines of the top-level functions and methods neither pass entered, per
module outside ``repro.lint``, and exits 1 above ``CEILING``.  The reference
oracle (``ORACLE``) is left out: it exists for the tests to check the
compiled paths against, and no workload should run it.  Run:
``PYTHONPATH=src python benchmarks/census.py``.
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
EXCLUDED = ("lint",)
# Qualified names of the reference oracle; a class name covers its methods.
ORACLE = (
    "repro.circuit.elements.Element.contribute",
    "repro.circuit.elements.Resistor.contribute",
    "repro.circuit.elements.Capacitor.contribute",
    "repro.circuit.elements.Capacitor.update_state",
    "repro.circuit.elements.VoltageSource.contribute",
    "repro.circuit.elements.CurrentSource.contribute",
    "repro.circuit.elements.FET.contribute",
    "repro.circuit.elements.StampContext",
    "repro.circuit.netlist.MNASystem.evaluate_dense",
    "repro.circuit.assembly.StampPlan.update_capacitor_state",
    "repro.circuit.assembly.StampPlan.cap_state_array",
    "repro.circuit.sweep.perturbed_circuit",
    "repro.circuit.sweep.ScaledShiftedFET",
    "repro.circuit.ac.dense_frequency_loop",
    "repro.circuit.ac.ACPlan.dense_system",
)
CEILING = 386


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


def _functions(path: Path, module: str):
    """``(qualified name, first line, line count)`` of every top-level
    function and method."""
    scopes = [(ast.parse(path.read_text()), module)]
    while scopes:
        scope, prefix = scopes.pop()
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node, f"{prefix}.{node.name}"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield f"{prefix}.{node.name}", first, node.end_lineno - first + 1


def _in_oracle(name: str) -> bool:
    return any(name == entry or name.startswith(entry + ".") for entry in ORACLE)


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
        module = ".".join(("repro",) + relative.with_suffix("").parts)
        unreached = sum(
            n
            for name, first, n in _functions(path, module)
            if (str(path), first) not in reached and not _in_oracle(name)
        )
        if unreached:
            print(f"{unreached:6d}  {module}")
        total += unreached
    print(f"{total:6d}  unreached function-lines (ceiling {CEILING})")
    return 1 if total > CEILING else 0


if __name__ == "__main__":
    raise SystemExit(main())
