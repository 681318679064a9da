"""Command-line entry point: ``python -m repro.lint`` / ``repro lint``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.diagnostics import RULES
from repro.lint.runner import default_root, run_lint

__all__ = ["main"]


def _list_rules() -> None:
    for rule, (summary, invariant) in RULES.items():
        print(f"{rule}  {summary}")
        print(f"        {invariant}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Contract-enforcing static analysis for src/repro: "
        "determinism, atomic-write and device-protocol invariants.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable diagnostics"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="skip import-time FETModel registry introspection "
        "(PRT001/PRT002)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    paths = args.paths or [default_root()]
    result = run_lint(paths, registry=not args.no_registry)

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        cwd = str(Path.cwd())
        for finding in result.findings:
            rendered = finding.render()
            if rendered.startswith(cwd):
                rendered = rendered[len(cwd) + 1 :]
            print(rendered)
        print(
            f"repro lint: {len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed by marker, "
            f"{result.n_files} file(s) scanned",
            file=sys.stderr,
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
