"""CLI surface: exit codes, JSON shape, and ``repro lint`` routing."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"


def test_clean_repo_exits_zero(capsys):
    assert lint_main([]) == 0
    assert "0 finding(s)" in capsys.readouterr().err


def test_dirty_path_exits_one(capsys):
    assert lint_main(["--no-registry", str(FIXTURES / "rng_bad.py")]) == 1


def test_json_output_is_machine_readable(capsys):
    code = lint_main(["--json", "--no-registry", str(FIXTURES / "rng_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["files_scanned"] == 1
    assert {f["rule"] for f in payload["findings"]} == {
        "RNG001",
        "RNG002",
        "RNG003",
        "RNG004",
    }
    for finding in payload["findings"]:
        assert set(finding) >= {"file", "line", "rule", "message"}


def test_list_rules_covers_every_family(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "RNG001",
        "PRT001",
        "IOW001",
        "PKN001",
        "MRG001",
        "IMP001",
        "LNT001",
    ):
        assert rule in out


def test_repro_cli_routes_lint_subcommand(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    assert "RNG001" in capsys.readouterr().out
