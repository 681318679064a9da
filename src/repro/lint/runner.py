"""Orchestration: collect files, run AST + registry rules, apply markers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.astrules import check_module
from repro.lint.diagnostics import REGISTRY_RULES, Diagnostic
from repro.lint.markers import Marker, extract_markers
from repro.lint.registry import check_registry, default_registry_modules

__all__ = ["LintResult", "run_lint"]


@dataclass
class LintResult:
    """Outcome of one lint pass."""

    findings: list[Diagnostic] = field(default_factory=list)
    suppressed: list[tuple[Diagnostic, Marker]] = field(default_factory=list)
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_scanned": self.n_files,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [
                {**finding.to_dict(), "reason": marker.reason}
                for finding, marker in self.suppressed
            ],
        }


def _collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def default_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def run_lint(
    paths: list[Path] | None = None,
    *,
    registry: bool = True,
    registry_modules: tuple[str, ...] | None = None,
) -> LintResult:
    """Run every rule family over ``paths`` (default: the repro package).

    ``registry=False`` skips the import-time FETModel introspection
    (PRT001/PRT002) — useful when linting code that is not
    importable.  Markers covering only registry rules are then exempt
    from the unused-marker check.
    """
    roots = [p.resolve() for p in (paths or [default_root()])]
    files = _collect_files(roots)

    raw: list[Diagnostic] = []
    markers: list[Marker] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        key = str(file)
        file_markers, malformed = extract_markers(key, source)
        markers.extend(file_markers)
        raw.extend(malformed)
        try:
            tree = ast.parse(source, filename=key)
        except SyntaxError as error:
            raw.append(
                Diagnostic(
                    key,
                    error.lineno or 1,
                    "LNT001",
                    f"file does not parse: {error.msg}",
                )
            )
            continue
        raw.extend(check_module(key, tree))

    if registry:
        modules = registry_modules or default_registry_modules()
        raw.extend(check_registry(roots, modules))

    by_file: dict[str, list[Marker]] = {}
    for marker in markers:
        by_file.setdefault(marker.file, []).append(marker)

    result = LintResult(n_files=len(files))
    for finding in sorted(raw):
        suppressor = next(
            (
                m
                for m in by_file.get(finding.file, ())
                if finding.rule != "LNT001" and m.suppresses(finding)
            ),
            None,
        )
        if suppressor is None:
            result.findings.append(finding)
        else:
            suppressor.used = True
            result.suppressed.append((finding, suppressor))

    for marker in markers:
        if marker.used:
            continue
        if not registry and set(marker.rules) <= REGISTRY_RULES:
            continue
        result.findings.append(
            Diagnostic(
                marker.file,
                marker.line,
                "LNT002",
                f"marker ok[{', '.join(marker.rules)}] suppresses nothing; "
                "remove it or move it to the line that needs it",
            )
        )
    result.findings.sort()
    return result
