"""The linter test-bed: every rule family fires on its seeded fixture.

Each fixture under ``fixtures/`` tags its deliberate violations with
``# seeded: RULE`` comments; the tests assert that lint findings and
seeded tags agree *exactly* — each rule fires where planted and nowhere
else — and that the real ``src/repro`` tree stays clean.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
_SEEDED = re.compile(r"#\s*seeded:\s*([A-Z]+\d+)")

AST_FIXTURES = [
    "rng_bad.py",
    "protocol_bad.py",
    "io_bad.py",
    "pool_bad.py",
    "imports_bad.py",
]


def seeded_expectations(name: str) -> set[tuple[str, int]]:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return {
        (match.group(1), lineno)
        for lineno, line in enumerate(source.splitlines(), start=1)
        if (match := _SEEDED.search(line))
    }


def found(result) -> set[tuple[str, int]]:
    return {(finding.rule, finding.line) for finding in result.findings}


@pytest.mark.parametrize("name", AST_FIXTURES)
def test_ast_fixture_fires_exactly_where_seeded(name):
    expected = seeded_expectations(name)
    assert expected, f"{name} has no seeded violations"
    result = run_lint([FIXTURES / name], registry=False)
    assert found(result) == expected


def test_registry_fixture_fires_exactly_where_seeded():
    sys.path.insert(0, str(FIXTURES))
    try:
        result = run_lint(
            [FIXTURES / "registry_bad.py"],
            registry=True,
            registry_modules=("registry_bad",),
        )
    finally:
        sys.path.remove(str(FIXTURES))
    expected = seeded_expectations("registry_bad.py")
    assert expected
    assert found(result) == expected


def test_marker_fixture_mixes_suppression_and_marker_rules():
    result = run_lint([FIXTURES / "markers_bad.py"], registry=False)
    assert sorted(f.rule for f in result.findings) == [
        "LNT001",  # marker without a reason
        "LNT002",  # marker that suppresses nothing
        "RNG001",  # the violation the malformed marker failed to cover
    ]
    # The well-formed marker suppressed its finding and recorded why.
    assert len(result.suppressed) == 1
    finding, marker = result.suppressed[0]
    assert finding.rule == "RNG001"
    assert marker.reason


def test_every_rule_family_is_exercised():
    exercised: set[str] = set()
    for name in AST_FIXTURES + ["registry_bad.py"]:
        exercised |= {rule for rule, _ in seeded_expectations(name)}
    exercised |= {"LNT001", "LNT002"}  # seeded by markers_bad.py
    assert {rule[:3] for rule in exercised} >= {
        "RNG",
        "PRT",
        "IOW",
        "PKN",
        "MRG",
        "IMP",
        "LNT",
    }


def test_src_repro_is_clean():
    """The acceptance gate: zero findings outside reasoned markers."""
    result = run_lint()
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    assert all(marker.reason for _, marker in result.suppressed)
    # The allowlist budget: every marker is a reviewed exception.
    assert len(result.suppressed) <= 5
