"""Command-line interface: listing, dispatch, output format, import cost."""

import json
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


# The eight modules perfbench's paper_physics workload imports at set-up.
PAPER_PHYSICS_MODULES = (
    "repro.cli",
    "repro.experiments.fig1",
    "repro.experiments.fig4",
    "repro.benchmarking.fig5",
    "repro.experiments.fig6",
    "repro.experiments.table1",
    "repro.experiments.scaling",
    "repro.experiments.fabric_density",
    "repro.experiments.ablations",
)

# Runs a script in a fresh interpreter, which sees the imports as a
# shell user does; the script's last output line is a JSON value.
_PRELUDE = """
import importlib, json, sys
sys.path.insert(0, {src!r})

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _fresh_interpreter(body: str):
    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE.format(src=str(src)) + body],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestImportPath:
    def test_paper_physics_path_leaves_scipy_unloaded(self):
        # The device artefacts factor no sparse matrix and reduce no AC
        # pencil, so neither importing them nor a dense circuit solve
        # may pay for scipy (fitpack, scipy.optimize, scipy.sparse and
        # scipy.linalg included).
        loaded = _fresh_interpreter(
            f"""
for module in {PAPER_PHYSICS_MODULES!r}:
    importlib.import_module(module)
from repro.cli import main
from repro.circuit.cells import inverter_vtc
from repro.devices.empirical import AlphaPowerFET

assert main(["table1"]) == 0
v_in, v_out, _ = inverter_vtc(AlphaPowerFET(), n_points=21)
assert v_out[0] > 0.9 and v_out[-1] < 0.1
print(json.dumps(scipy_loaded()))
"""
        )
        assert loaded == []

    def test_warm_surrogate_load_leaves_fitpack_unloaded(self, tmp_path, monkeypatch):
        # A surrogate stores its cells, in the cache file and in its
        # pickle, so on a warm cache neither a `cascade --physical` run
        # nor unpickling a surrogate imports scipy.interpolate.
        monkeypatch.setenv("REPRO_SURROGATE_CACHE", str(tmp_path / "surrogates"))
        pickled = tmp_path / "surrogate.pickle"
        compiled = _fresh_interpreter(
            f"""
import pickle
from repro.experiments.cascade import physical_saturating_fet

with open({str(pickled)!r}, "wb") as handle:
    pickle.dump(physical_saturating_fet(), handle)
print(json.dumps(scipy_loaded()))
"""
        )
        assert "scipy.interpolate" in compiled  # the cold compile ran fitpack
        warm_run = _fresh_interpreter(
            """
from repro.cli import main

assert main(["cascade", "--physical"]) == 0
print(json.dumps(scipy_loaded()))
"""
        )
        unpickled = _fresh_interpreter(
            f"""
import pickle

with open({str(pickled)!r}, "rb") as handle:
    surrogate = pickle.load(handle)
current, gm, gds = surrogate.linearize([0.3, 0.6], [0.2, -0.4])
assert current[0] > 0.0 > current[1] and gm[0] > 0.0
print(json.dumps(scipy_loaded()))
"""
        )
        for loaded in (warm_run, unpickled):
            assert not [m for m in loaded if m.startswith("scipy.interpolate")]

    def test_sparse_plan_and_ac_pencil_load_scipy(self):
        # scipy arrives with the first sparse plan (scipy.sparse, splu)
        # and the first dense AC pencil (qz), and both still solve.
        result = _fresh_interpreter(
            """
import numpy as np
from repro.circuit import ACPlan, Circuit
from repro.circuit.solver import solve_dc
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET

before = scipy_loaded()
ladder = Circuit("ladder")
ladder.add_voltage_source("VDD", "vdd", "0", DC(1.0))
ladder.add_voltage_source("VIN", "n0", "0", DC(1.0))
ladder.add_fet("MN", "n1", "n0", "0", AlphaPowerFET())
ladder.add_resistor("RP", "vdd", "n1", 1e5)
for i in range(1, 140):
    ladder.add_resistor(f"R{i}", f"n{i}", f"n{i + 1}", 1e3)
ladder.add_resistor("RT", "n140", "0", 1e6)
system = ladder.build_system()
x = solve_dc(system)
residual, _ = system.evaluate(x)
after_sparse = scipy_loaded()
from repro.circuit import ac
qz_before = "qz" in vars(ac)

rc = Circuit("rc")
rc.add_voltage_source("VIN", "a", "0", DC(0.0))
rc.add_resistor("R", "a", "b", 1e3)
rc.add_capacitor("C", "b", "0", 1e-9)
plan = ACPlan(rc, "VIN")
gain = np.abs(plan.sweep([1e3, 1e9]).transfer("b"))
print(json.dumps({
    "before": before,
    "size": system.size,
    "sparse": system._plan.use_sparse,
    "residual": float(np.abs(residual).max()),
    "after_sparse": after_sparse,
    "ac_sparse": plan.use_sparse,
    "gain": gain.tolist(),
    "qz_bound": [qz_before, "qz" in vars(ac)],
}))
"""
        )
        assert result["before"] == []
        assert result["size"] >= 128 and result["sparse"]
        assert result["residual"] < 1e-9
        assert "scipy.sparse.linalg" in result["after_sparse"]
        assert not result["ac_sparse"]
        low, high = result["gain"]
        assert abs(low - 1.0) < 1e-3 and high < 1e-3
        assert result["qz_bound"] == [False, True]
