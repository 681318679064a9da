"""Persist the per-PR perf trajectory: ``python benchmarks/perf_trajectory.py``.

Times the repo's headline workloads (the same cases the pytest
benchmarks in this directory gate on) with ``perf_counter`` and writes
``BENCH_<pr>.json`` at the repo root, so re-anchors can see the curve
across PRs instead of a single point.  Timings are machine-dependent —
the artifact records the shape of the trajectory, not absolute truth.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --pr N [--label L] [--repeat K]

Every row carries ``--label`` (default ``change``).  A run replaces the
rows of its own label in ``BENCH_<pr>.json`` and keeps the others, so
running it once with ``PYTHONPATH`` at the parent commit's ``src`` and
``--label parent`` and once at the change puts both sides in one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread, pinned before numpy loads (the same variables
# as perfbench/run.py): a thread pool sized by the host's idle cores
# would move every timing with the host's load.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

# Mirrors benchmarks/test_sweep_bench.py so numbers stay comparable.
SEED = 20140314
CHAIN_STAGES = 5
N_INSTANCES = 1000
N_ARRAY_DEVICES = 10000
N_TRANSIENT = 256
T_STOP = 0.2e-9
DT = 1e-11
N_SPARSE = 256
SPARSE_STAGES = 200
N_AC_FREQUENCIES = 240
AC_DENSE_STAGES = 100
AC_SPARSE_STAGES = 600


def _timed(fn, repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds (first call may warm caches)."""
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def bench_chain_mc(repeat: int) -> dict:
    from repro.circuit.sweep import CircuitMonteCarlo, FETVariation
    from repro.circuit.waveforms import DC
    from repro.devices.empirical import AlphaPowerFET
    from repro.experiments.cascade import build_inverter_chain

    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=CHAIN_STAGES, input_waveform=DC(0.0)
    )
    engine = CircuitMonteCarlo(chain)
    variation = FETVariation.sample(
        N_INSTANCES,
        len(engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )
    seconds = _timed(lambda: engine.run(variation), repeat)
    return {
        "case": "dc_mc_chain_batched",
        "detail": f"{N_INSTANCES}-instance DC MC, {CHAIN_STAGES}-stage chain",
        "seconds": seconds,
    }


def bench_array_sampling(repeat: int) -> dict:
    from repro.integration.variability import CNFETArrayModel

    model = CNFETArrayModel()
    seconds = _timed(
        lambda: model.sample_array(n_devices=N_ARRAY_DEVICES, seed=SEED), repeat
    )
    return {
        "case": "cnfet_array_vectorized",
        "detail": f"{N_ARRAY_DEVICES}-device array, substream blocks",
        "seconds": seconds,
    }


def bench_transient_mc(repeat: int) -> dict:
    from repro.circuit.sweep import CircuitTransientMC, FETVariation
    from repro.circuit.waveforms import Pulse
    from repro.devices.empirical import AlphaPowerFET
    from repro.experiments.cascade import build_inverter_chain

    stimulus = Pulse(
        v1=0.0, v2=1.0, delay_s=0.02e-9, rise_s=10e-12, fall_s=10e-12,
        width_s=0.09e-9, period_s=0.0,
    )
    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=CHAIN_STAGES, input_waveform=stimulus
    )
    engine = CircuitTransientMC(chain)
    variation = FETVariation.sample(
        N_TRANSIENT,
        len(engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )
    seconds = _timed(lambda: engine.run(variation, T_STOP, DT), repeat)
    return {
        "case": "transient_mc_batched",
        "detail": f"{N_TRANSIENT}-instance transient MC, 20-step window",
        "seconds": seconds,
    }


def bench_sparse_mc(repeat: int) -> dict:
    from repro.circuit.sweep import CircuitMonteCarlo, FETVariation
    from repro.circuit.waveforms import DC
    from repro.devices.empirical import AlphaPowerFET
    from repro.experiments.cascade import build_inverter_chain

    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=SPARSE_STAGES, input_waveform=DC(0.0)
    )
    engine = CircuitMonteCarlo(chain)
    if not engine.plan.use_sparse:
        raise SystemExit("sparse MC bench circuit fell below SPARSE_THRESHOLD")
    variation = FETVariation.sample(
        N_SPARSE,
        len(engine.fet_names),
        seed=SEED,
        drive_sigma=0.15,
        vth_sigma_v=0.01,
    )
    seconds = _timed(lambda: engine.run(variation), repeat)
    return {
        "case": "dc_mc_sparse_batched",
        "detail": (
            f"{N_SPARSE}-instance DC MC, {SPARSE_STAGES}-stage chain "
            f"({engine.plan.size} unknowns, sparse)"
        ),
        "seconds": seconds,
    }


def _ac_sweep_case(stages: int, repeat: int, case: str) -> dict:
    from repro.circuit.ac import ACPlan, dense_frequency_loop
    from repro.circuit.waveforms import DC
    from repro.devices.empirical import AlphaPowerFET
    from repro.experiments.cascade import build_inverter_chain

    chain = build_inverter_chain(
        AlphaPowerFET(), n_stages=stages, input_waveform=DC(0.0)
    )
    plan = ACPlan(chain, "VIN")
    frequencies = np.logspace(3, 11, N_AC_FREQUENCIES)
    conductance, capacitance, rhs = plan.dense_system()
    loop_seconds = _timed(
        lambda: dense_frequency_loop(conductance, capacitance, rhs, frequencies),
        max(1, repeat - 1),  # the 604-unknown loop runs ~5 s per pass
    )
    seconds = _timed(lambda: plan.sweep_samples(frequencies), repeat)
    regime = "sparse refactorization" if plan.use_sparse else "Schur-compiled"
    return {
        "case": case,
        "detail": (
            f"{N_AC_FREQUENCIES}-point AC sweep, {plan.size} unknowns "
            f"({regime}; per-frequency loop {loop_seconds * 1e3:.1f} ms)"
        ),
        "seconds": seconds,
    }


def bench_ac_sweep_dense(repeat: int) -> dict:
    return _ac_sweep_case(AC_DENSE_STAGES, repeat, "ac_sweep_dense_compiled")


def bench_ac_sweep_sparse(repeat: int) -> dict:
    return _ac_sweep_case(AC_SPARSE_STAGES, repeat, "ac_sweep_sparse_compiled")


def bench_ballistic_grid_fill(repeat: int) -> dict:
    from repro.devices.cntfet import CNTFET

    device = CNTFET.reference_device()
    vgs = np.linspace(-0.2, 1.2, 29)
    vds = np.linspace(0.0, 1.2, 25)
    seconds = _timed(lambda: device.grid_currents(vgs, vds), repeat)
    return {
        "case": "ballistic_grid_fill",
        "detail": "29x25 CNTFET grid_currents (one fabric table fill)",
        "seconds": seconds,
    }


def bench_fabric_density(repeat: int) -> dict:
    from repro.devices import fabric
    from repro.experiments.fabric_density import run_fabric_density

    def cold_run() -> None:
        # Every repeat starts without tables, as a fresh process does.
        fabric._TABULATED_CACHE.clear()
        run_fabric_density()

    seconds = _timed(cold_run, repeat)
    return {
        "case": "fabric_density",
        "detail": "run_fabric_density() at its defaults, per-chirality tables cleared",
        "seconds": seconds,
    }


def bench_contact_transfer_curve(repeat: int) -> dict:
    from conftest import fig5_contact_transfer_case
    from repro.devices.base import transfer_curve

    device, vgs, vds = fig5_contact_transfer_case()
    seconds = _timed(lambda: transfer_curve(device, vgs, vds), repeat)
    return {
        "case": "contact_transfer_curve",
        "detail": "105-point SeriesResistanceFET transfer curve (fig5 device, 20 nm contacts)",
        "seconds": seconds,
    }


def bench_btbt_transfer_curve(repeat: int) -> dict:
    from repro.devices.tfet import CNTTunnelFET
    from repro.experiments.fig6 import REVERSE_BIAS_V
    from repro.physics.cnt import chirality_for_gap

    device = CNTTunnelFET(chirality_for_gap(0.56))
    v_gate = np.linspace(-2.0, 1.0, 201)
    seconds = _timed(lambda: device.transfer_curve(v_gate, REVERSE_BIAS_V), repeat)
    return {
        "case": "btbt_transfer_curve",
        "detail": "201-point CNT tunnel-FET reverse transfer curve (fig6)",
        "seconds": seconds,
    }


def bench_vtc_sweep(repeat: int) -> dict:
    from conftest import scaling_vtc_cases
    from repro.circuit.dc import dc_sweep

    cases = scaling_vtc_cases()

    def run() -> None:
        for _, circuit, values in cases:
            dc_sweep(circuit, "VIN", values)

    run()  # fills the CNT table cells the sweeps read
    seconds = _timed(run, repeat)
    return {
        "case": "vtc_sweep",
        "detail": "scaling's 6 inverter VTCs (CNT table + Si trigate at 0.4/0.5/1.0 V), 161 points each, table warm",
        "seconds": seconds,
    }


def bench_cli_startup(repeat: int) -> dict:
    import subprocess

    # A fresh interpreter per run, with this process's environment: the
    # thread pins above and the PYTHONPATH whose src is being measured.
    def run() -> None:
        subprocess.run(
            [sys.executable, "-m", "repro", "table1"],
            check=True,
            stdout=subprocess.DEVNULL,
        )

    seconds = _timed(run, repeat)
    return {
        "case": "cli_startup",
        "detail": "fresh `python -m repro table1` process (imports + a 3 ms experiment)",
        "seconds": seconds,
    }


def bench_contract_lint(repeat: int) -> dict:
    from repro.lint import run_lint

    result = run_lint()
    if not result.ok:  # the artifact must not paper over a dirty tree
        raise SystemExit("repro lint found violations; fix them first")
    seconds = _timed(run_lint, repeat)
    return {
        "case": "contract_lint_full_repo",
        "detail": f"repro.lint over {result.n_files} files + device registry",
        "seconds": seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="PR number for the artifact name")
    parser.add_argument("--label", default="change", help="tag of this run's rows (e.g. parent)")
    parser.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = parser.parse_args(argv)

    results = [
        {"label": args.label, **bench(args.repeat)}
        for bench in (
            bench_chain_mc,
            bench_array_sampling,
            bench_transient_mc,
            bench_sparse_mc,
            bench_ac_sweep_dense,
            bench_ac_sweep_sparse,
            bench_ballistic_grid_fill,
            bench_fabric_density,
            bench_contact_transfer_curve,
            bench_btbt_transfer_curve,
            bench_vtc_sweep,
            bench_cli_startup,
            bench_contract_lint,
        )
    ]
    target = REPO_ROOT / f"BENCH_{args.pr}.json"
    kept = []
    if target.exists():
        kept = [
            row
            for row in json.loads(target.read_text())["results"]
            if row.get("label") != args.label
        ]
    payload = {
        "pr": args.pr,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_pins": THREAD_PINS,
        "results": kept + results,
    }

    from repro.store import atomic_write_text

    atomic_write_text(target, json.dumps(payload, indent=1) + "\n")
    for row in results:
        print(f"{row['case']:28s} {row['seconds'] * 1e3:10.2f} ms  ({row['detail']})")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
