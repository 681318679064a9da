"""Command-line interface: listing, dispatch, output format, import cost."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main


class TestListing:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "fig1" in capsys.readouterr().out


class TestDispatch:
    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code != 0

    def test_table1_prints_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "trigate" in out

    def test_rf_prints_rows(self, capsys):
        assert main(["rf"]) == 0
        out = capsys.readouterr().out
        assert "f_max" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "rf"]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("=== ")]
        assert len(headers) == 2

    def test_every_registered_runner_returns_rows(self):
        # Cheap registry self-check: runners are callables with metadata.
        for name, (description, runner) in EXPERIMENTS.items():
            assert isinstance(description, str) and description
            assert callable(runner)


class TestStructuredFailureExit:
    def _failing_runner(self):
        from repro.circuit.resilience import (
            ChunkRecord,
            RunReport,
            SweepExecutionError,
        )

        report = RunReport(
            chunks=[
                ChunkRecord(index=0, n_items=4, status="ok", attempts=1),
                ChunkRecord(
                    index=1,
                    n_items=4,
                    status="failed",
                    attempts=3,
                    failures=("crash", "crash", "crash"),
                ),
            ],
            workers=2,
            pool_rebuilds=3,
            wall_s=1.0,
        )
        raise SweepExecutionError("supervised sweep failed", report, {0: [1, 2, 3, 4]})

    def test_sweep_failure_exits_2_with_one_line_and_report(
        self, capsys, monkeypatch, tmp_path
    ):
        import json
        import repro.cli as cli

        monkeypatch.setitem(
            cli.EXPERIMENTS, "fabric", ("desc", lambda: self._failing_runner())
        )
        monkeypatch.chdir(tmp_path)
        assert main(["fabric"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no half-printed artefact rows
        assert captured.err.count("\n") == 1
        assert "repro fabric: FAILED" in captured.err
        assert "crash=3" in captured.err
        # The salvaged RunReport is persisted for post-mortem/resume.
        payload = json.loads((tmp_path / "run-report.json").read_text())
        assert payload["counts"] == {"ok": 1, "failed": 1}
        assert payload["failure_taxonomy"] == {"crash": 3}

    def test_generic_failure_exits_1_with_one_line(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom():
            raise RuntimeError("kernel exploded")

        monkeypatch.setitem(cli.EXPERIMENTS, "fabric", ("desc", boom))
        assert main(["fabric"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro fabric: FAILED — RuntimeError: kernel exploded" in err


class TestResumeFlag:
    def test_resume_rejects_unsupported_experiments(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--resume", str(tmp_path)])
        assert excinfo.value.code != 0

    def test_resume_rejects_physical_combination(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["integration", "--physical", "--resume", str(tmp_path)])
        assert excinfo.value.code != 0

    def test_resumable_registry_is_a_subset(self):
        from repro.cli import RESUMABLE_EXPERIMENTS

        assert set(RESUMABLE_EXPERIMENTS) <= set(EXPERIMENTS)
        assert {"fabric", "integration"} <= set(RESUMABLE_EXPERIMENTS)

    def test_resume_runs_supervised_and_checkpoints(self, capsys, tmp_path):
        assert main(["fabric", "--resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fabric" in out
        # The supervised run left chunk checkpoints under the dir.
        assert list(tmp_path.glob("*/chunk-*.pkl"))
        # A second invocation resumes from them and prints the same rows.
        assert main(["fabric", "--resume", str(tmp_path)]) == 0
        assert capsys.readouterr().out == out


class TestPhysicalStack:
    def test_physical_registry_is_a_subset(self):
        from repro.cli import PHYSICAL_EXPERIMENTS

        assert set(PHYSICAL_EXPERIMENTS) <= set(EXPERIMENTS)
        assert {"cascade", "timing", "integration"} <= set(PHYSICAL_EXPERIMENTS)

    def test_physical_flag_rejects_unsupported_experiments(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1", "--physical"])
        assert excinfo.value.code != 0

    def test_listing_marks_physical_experiments(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "[--physical]" in out


class TestImportPath:
    def test_cli_import_leaves_fitpack_unloaded(self):
        # fitpack is needed only to compile or load a surrogate table;
        # importing the CLI must not pay for scipy.interpolate (nor the
        # scipy.optimize it pulls in).  A fresh interpreter sees the
        # import as a shell user does.
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import repro.cli; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') "
            "if m in sys.modules))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"
