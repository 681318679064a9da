"""AST rule families: RNG discipline, protocol coherence, atomic
writes, pool-kernel safety, merge validation.

Each public entry point takes a parsed module and returns diagnostics;
:func:`check_module` runs them all.  The rules are deliberately
structural (no string matching on source text): a call is flagged by
what it resolves to in the tree, so ``np.random.default_rng(seed)`` and
``default_rng(seq)`` pass while any argumentless spelling fails.
"""

from __future__ import annotations

import ast

from repro.lint.diagnostics import Diagnostic

__all__ = ["check_module"]

# Attribute names whose argumentless call means "draw OS entropy".
_SEEDLESS = {"default_rng": "RNG001", "SeedSequence": "RNG002"}

# (attribute, allowed bases) -> wall-clock reads.  perf_counter /
# monotonic measure durations and stay legal.
_WALL_CLOCK = {
    "time": {"time"},
    "time_ns": {"time"},
    "now": {"datetime"},
    "utcnow": {"datetime"},
    "today": {"date", "datetime"},
}


def check_module(path: str, tree: ast.Module) -> list[Diagnostic]:
    checker = _FileChecker(path, tree)
    checker.visit(tree)
    checker.finish()
    return checker.findings


def _func_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _base_name(node: ast.expr) -> str | None:
    """Name of the object a call is made on: ``time.time`` -> 'time'."""
    if isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
    return None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class _FileChecker(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.findings: list[Diagnostic] = []
        # Module-level function defs and imported names: the only things
        # a pool kernel reference may resolve to.
        self.module_funcs: dict[str, ast.FunctionDef] = {}
        self.imported: set[str] = set()
        self.classes: dict[str, ast.ClassDef] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_funcs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        self.imported.add(alias.asname or alias.name)
        # Names of functions defined inside other functions (unpicklable
        # as pool kernels), and kernels to re-examine for PKN002.
        self.nested_funcs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if (
                        child is not node
                        and isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                    ):
                        self.nested_funcs.add(child.name)
        self._kernel_names: set[str] = set()

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Diagnostic(self.path, node.lineno, rule, message))

    # -- imports: stdlib random ------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._report(
                    node,
                    "RNG003",
                    "stdlib random has hidden global state; use a numpy "
                    "Generator spawned from an explicit SeedSequence",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._report(
                node,
                "RNG003",
                "stdlib random has hidden global state; use a numpy "
                "Generator spawned from an explicit SeedSequence",
            )
        self.generic_visit(node)

    # -- calls: RNG, wall clock, writes, sweep construction --------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _func_name(node.func)
        if name in _SEEDLESS:
            self._check_seedless(node, name)
        if name in _WALL_CLOCK and _base_name(node.func) in _WALL_CLOCK[name]:
            self._report(
                node,
                "RNG004",
                f"wall-clock read {_base_name(node.func)}.{name}() makes "
                "results depend on when they ran; pass timestamps in from "
                "the boundary (perf_counter/monotonic are fine for "
                "durations)",
            )
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self._check_open(node)
        if name in {"write_text", "write_bytes"} and isinstance(
            node.func, ast.Attribute
        ):
            self._report(
                node,
                "IOW001",
                f"direct {name}() is not crash-safe; route through "
                "repro.store.atomic_write_text "
                "(mkstemp + os.replace)",
            )
        if isinstance(node.func, ast.Name) and node.func.id == "SweepPlan":
            self._check_sweep_plan(node)
        if name == "run_supervised":
            chunk_fn = _keyword(node, "chunk_fn")
            if chunk_fn is not None:
                self._check_kernel(node, chunk_fn, "run_supervised chunk_fn")
        self.generic_visit(node)

    def _check_seedless(self, node: ast.Call, name: str) -> None:
        args = node.args
        seedless = not args and not node.keywords
        if (
            len(args) == 1
            and isinstance(args[0], ast.Constant)
            and args[0].value is None
        ):
            seedless = True
        if seedless:
            self._report(
                node,
                _SEEDLESS[name],
                f"{name}() without a seed draws OS entropy; library code "
                "must thread an explicit seed/SeedSequence from its caller",
            )

    def _check_open(self, node: ast.Call) -> None:
        mode = node.args[1] if len(node.args) > 1 else _keyword(node, "mode")
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and set(mode.value) & set("wax+")
        ):
            self._report(
                node,
                "IOW001",
                f"open(..., {mode.value!r}) writes in place; a crash or "
                "concurrent reader sees a torn file — write to a mkstemp "
                "temp and os.replace() it (see repro.store.atomic_write_text)",
            )

    def _check_sweep_plan(self, node: ast.Call) -> None:
        kernel = node.args[0] if node.args else _keyword(node, "kernel")
        if kernel is not None:
            self._check_kernel(node, kernel, "SweepPlan kernel")
        vectorized = _keyword(node, "vectorized")
        if (
            isinstance(vectorized, ast.Constant)
            and vectorized.value is True
            and _keyword(node, "validate") is None
        ):
            self._report(
                node,
                "MRG001",
                "vectorized SweepPlan without validate=: block split/merge "
                "bugs surface as corrupted statistics instead of a "
                "SweepExecutionError; register an entry validator "
                "(the _mc_entry_validator pattern)",
            )

    def _check_kernel(self, call: ast.Call, kernel: ast.expr, role: str) -> None:
        if isinstance(kernel, ast.Lambda):
            self._report(
                call,
                "PKN001",
                f"{role} is a lambda: not picklable across the process-pool "
                "boundary; define a module-level function",
            )
            return
        if not isinstance(kernel, ast.Name):
            self._report(
                call,
                "PKN001",
                f"{role} is not a plain function reference; workers must "
                "import it by module-level name to unpickle it",
            )
            return
        if kernel.id in self.module_funcs:
            self._kernel_names.add(kernel.id)
            return
        if kernel.id in self.imported:
            return  # defined (module-level) elsewhere; pickling resolves it
        if kernel.id in self.nested_funcs:
            self._report(
                call,
                "PKN001",
                f"{role} {kernel.id!r} is a nested function: closures do "
                "not pickle and smuggle unfingerprinted state into workers",
            )
        else:
            self._report(
                call,
                "PKN001",
                f"{role} {kernel.id!r} does not resolve to a module-level "
                "function in this module; workers cannot verifiably "
                "unpickle it",
            )

    def finish(self) -> None:
        """Deferred checks that need the whole module visited first."""
        for name in sorted(self._kernel_names):
            func = self.module_funcs[name]
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    self.findings.append(
                        Diagnostic(
                            self.path,
                            node.lineno,
                            "PKN002",
                            f"sweep kernel {name!r} declares "
                            f"global {', '.join(node.names)}: kernel inputs "
                            "must travel through (params, rng, payload)",
                        )
                    )

    # -- classes: protocol coherence -------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._check_mirror_coherence(node, methods, methods.get("__init__"))
        self.generic_visit(node)

    def _ancestors(self, node: ast.ClassDef) -> list[ast.ClassDef]:
        """Base classes resolvable inside this module, transitively."""
        out: list[ast.ClassDef] = []
        queue = list(node.bases)
        while queue:
            base = queue.pop()
            if isinstance(base, ast.Name) and base.id in self.classes:
                ancestor = self.classes[base.id]
                if ancestor not in out:
                    out.append(ancestor)
                    queue.extend(ancestor.bases)
        return out

    def _ancestor_defines(self, node: ast.ClassDef, method: str) -> bool:
        return any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == method
            for ancestor in self._ancestors(node)
            for stmt in ancestor.body
        )

    def _check_mirror_coherence(
        self,
        node: ast.ClassDef,
        methods: dict[str, ast.FunctionDef],
        init: ast.FunctionDef | None,
    ) -> None:
        """PRT003: a device whose mirror symmetry is disabled (or bias-
        dependent) must declare its own two-sided operating_box."""
        flag_line: int | None = None
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "mirror_symmetric"
                    for t in stmt.targets
                )
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is False
            ):
                flag_line = stmt.lineno
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "mirror_symmetric"
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is False
            ):
                flag_line = stmt.lineno
        if flag_line is None and init is not None:
            for stmt in ast.walk(init):
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Attribute)
                    and stmt.targets[0].attr == "mirror_symmetric"
                    and isinstance(stmt.targets[0].value, ast.Name)
                    and stmt.targets[0].value.id == "self"
                ):
                    flag_line = stmt.lineno
        if flag_line is None:
            return
        if "operating_box" in methods or self._ancestor_defines(
            node, "operating_box"
        ):
            return
        self.findings.append(
            Diagnostic(
                self.path,
                flag_line,
                "PRT003",
                f"{node.name} disables mirror_symmetric but keeps the "
                "default operating_box (vds >= 0 only): the surrogate "
                "compiler would mirror currents that are not symmetric — "
                "declare a two-sided box",
            )
        )
