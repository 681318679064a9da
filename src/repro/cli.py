"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro fig1          # one artefact
    python -m repro table1 rf     # several
    python -m repro --list        # what's available
    python -m repro all           # everything (minutes)
    python -m repro cascade --physical   # physical CNT-FET device stack
    python -m repro lint          # contract linter (see repro.lint)

Each experiment prints the same (label, value) rows its benchmark
prints, so shell users and EXPERIMENTS.md readers see identical numbers.
``--physical`` swaps the circuit-level experiments (``cascade``,
``timing``, ``integration``) onto the surrogate-compiled ballistic
CNT-FET instead of the behavioural alpha-power stand-in — affordable
because device evaluation happens on the cached spline table
(:mod:`repro.devices.surrogate`), not the k-space integrals.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

__all__ = [
    "main",
    "EXPERIMENTS",
    "PHYSICAL_EXPERIMENTS",
    "RESUMABLE_EXPERIMENTS",
]


def _physical_device():
    """The surrogate-compiled benchmark CNT-FET of the --physical stack."""
    from repro.experiments.cascade import physical_saturating_fet

    return physical_saturating_fet()


def _run_fig1() -> list[tuple]:
    from repro.experiments.fig1 import run_fig1

    return run_fig1().rows()


def _run_fig2() -> list[tuple]:
    from repro.experiments.fig2 import run_fig2

    return run_fig2().rows()


def _run_fig4() -> list[tuple]:
    from repro.experiments.fig4 import run_fig4

    return run_fig4().rows()


def _run_fig5() -> list[tuple]:
    from repro.benchmarking.fig5 import run_fig5_benchmark

    result = run_fig5_benchmark(gate_lengths_nm=(9.0, 30.0, 100.0))
    return [(f"{name} @ {length:g} nm [uA/um]", ion) for name, length, ion in result.rows()]


def _run_fig6() -> list[tuple]:
    from repro.experiments.fig6 import run_fig6

    return run_fig6().rows()


def _run_table1() -> list[tuple]:
    from repro.experiments.table1 import run_table1

    return [
        (claim, paper, measured) for claim, paper, measured in run_table1().rows()
    ]


def _run_integration(policy=None) -> list[tuple]:
    from repro.experiments.integration_stats import run_integration_stats

    return run_integration_stats(
        n_array_devices=2000, n_functional_trials=30, policy=policy
    ).rows()


def _run_rf() -> list[tuple]:
    from repro.experiments.rf_comparison import run_rf_comparison

    return run_rf_comparison().rows()


def _run_scaling() -> list[tuple]:
    from repro.experiments.scaling import run_voltage_scaling

    return run_voltage_scaling(supplies_v=(0.4, 0.5, 1.0)).rows()


def _run_cascade() -> list[tuple]:
    from repro.experiments.cascade import run_cascade

    return run_cascade().rows()


def _run_fabric(policy=None) -> list[tuple]:
    from repro.experiments.fabric_density import run_fabric_density

    return run_fabric_density(
        pitches_nm=(8.0, 32.0), purities=(0.9, 1.0), n_samples=3, policy=policy
    ).rows()


def _run_timing(device=None) -> list[tuple]:
    from repro.analysis.timing import (
        cv_over_i_delay_s,
        delay_energy_distribution,
        transient_delay_corner_sweep,
    )
    from repro.devices.empirical import AlphaPowerFET

    device = AlphaPowerFET() if device is None else device
    rows: list[tuple] = [
        ("CV/I delay @ 10 fF, 1 V [ps]", cv_over_i_delay_s(device, 10e-15, 1.0) * 1e12)
    ]
    corners = {"slow": (0.7, 0.05), "typical": (1.0, 0.0), "fast": (1.3, -0.05)}
    sweep = transient_delay_corner_sweep(device, corners)
    for label, delay, energy in zip(
        sweep.labels, sweep.average_delays_s, sweep.energies_j
    ):
        rows.append((f"{label} corner delay [ps]", float(delay) * 1e12))
        rows.append((f"{label} corner energy [fJ]", float(energy) * 1e15))
    rows.append(("corner delay spread (max/min)", sweep.spread()))
    distribution = delay_energy_distribution(
        device, 64, drive_sigma=0.15, vth_sigma_v=0.01, seed=20140314
    )
    rows.append(("MC delay mean [ps]", distribution.delay_mean_s * 1e12))
    rows.append(("MC delay sigma [ps]", distribution.delay_sigma_s * 1e12))
    rows.append(("MC energy mean [fJ]", distribution.energy_mean_j * 1e15))
    rows.append(("MC energy sigma [fJ]", distribution.energy_sigma_j * 1e15))
    return rows


def _run_ablations() -> list[tuple]:
    from repro.experiments.ablations import (
        run_ballisticity_ablation,
        run_contact_length_ablation,
        run_dark_space_ablation,
    )

    rows: list[tuple] = []
    dark = run_dark_space_ablation()
    rows.append(("dark-space SS penalty, InAs vs CNT @ 9 nm", dark.penalty_at(9.0, "InAs")))
    rows.append(("dark-space SS penalty, Si vs CNT @ 9 nm", dark.penalty_at(9.0, "Si")))
    ballistic = run_ballisticity_ablation(channel_lengths_nm=(9.0, 100.0, 1000.0))
    for length, transmission in zip(
        ballistic.channel_lengths_nm, ballistic.transmission
    ):
        rows.append((f"ballisticity @ {length:g} nm", float(transmission)))
    contact = run_contact_length_ablation(contact_lengths_nm=(5.0, 20.0, 640.0))
    for length, resistance in zip(
        contact.contact_lengths_nm, contact.series_resistance_ohm
    ):
        rows.append((f"series R @ L_c = {length:g} nm [kOhm]", float(resistance / 1e3)))
    return rows


def _run_surrogate() -> list[tuple]:
    from repro.experiments.surrogate_report import run_surrogate_report

    return run_surrogate_report().rows()


def _run_cascade_physical() -> list[tuple]:
    from repro.experiments.cascade import run_cascade

    return run_cascade(device_stack="physical").rows()


def _run_timing_physical() -> list[tuple]:
    return _run_timing(device=_physical_device())


def _run_integration_physical() -> list[tuple]:
    from repro.experiments.integration_stats import run_integration_stats

    return run_integration_stats(
        n_array_devices=2000, n_functional_trials=30, device=_physical_device()
    ).rows()


EXPERIMENTS: dict[str, tuple[str, Callable[[], list[tuple]]]] = {
    "fig1": ("CNT vs GNR FET at equal band gap", _run_fig1),
    "fig2": ("inverter study: saturation vs not", _run_fig2),
    "fig4": ("contact-resistance degradation", _run_fig4),
    "fig5": ("technology benchmark (del Alamo style)", _run_fig5),
    "fig6": ("CNT tunnel FET (gated PIN diode)", _run_fig6),
    "table1": ("in-text numeric claims", _run_table1),
    "integration": ("Section V integration statistics", _run_integration),
    "rf": ("Section II RF comparison (variation-aware)", _run_rf),
    "scaling": ("voltage scaling: CNT fabric vs Si trigate", _run_scaling),
    "fabric": ("aligned-fabric pitch/purity requirements", _run_fabric),
    "cascade": ("cascaded logic: level restoration vs collapse", _run_cascade),
    "ablations": ("design-choice ablations", _run_ablations),
    "timing": ("transient delay/energy: corners + device-spread MC", _run_timing),
    "surrogate": ("spline-surrogate accuracy and speedup report", _run_surrogate),
}

# Experiments that support the --physical device stack: same artefact,
# surrogate-compiled ballistic CNT-FET instead of the behavioural model.
PHYSICAL_EXPERIMENTS: dict[str, Callable[[], list[tuple]]] = {
    "cascade": _run_cascade_physical,
    "timing": _run_timing_physical,
    "integration": _run_integration_physical,
}

# Experiments whose Monte Carlo sweeps accept an ExecutionPolicy: with
# --resume DIR they run supervised with chunk checkpoints under DIR, so
# a killed run picks up where it left off.
RESUMABLE_EXPERIMENTS: dict[str, Callable[..., list[tuple]]] = {
    "fabric": _run_fabric,
    "integration": _run_integration,
}


def _resume_policy(resume_dir: str):
    """Supervised execution with chunk checkpoints under ``resume_dir``."""
    from repro.circuit.resilience import ExecutionPolicy

    return ExecutionPolicy(checkpoint_root=resume_dir)


def _persist_report(report, resume_dir: str | None) -> str:
    """Write the salvaged RunReport next to the checkpoints (or in cwd)."""
    from pathlib import Path

    from repro.store import atomic_write_text

    target = Path(resume_dir) if resume_dir is not None else Path(".")
    path = target / "run-report.json"
    atomic_write_text(path, report.to_json())
    return str(path)


def _print_rows(title: str, rows: list[tuple]) -> None:
    print(f"=== {title} ===")
    for row in rows:
        label, *values = row
        rendered = "  ".join(
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        )
        print(f"  {label:45s} {rendered}")
    print()


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # Static-analysis subcommand: delegate to the contract linter.
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts of Kreupl, 'Advancing CMOS with "
        "Carbon Electronics' (DATE 2014).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (or 'all'); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--physical",
        action="store_true",
        help="run on the surrogate-compiled physical CNT-FET device stack "
        f"(supported: {', '.join(sorted(PHYSICAL_EXPERIMENTS))})",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="run Monte Carlo sweeps supervised with chunk checkpoints "
        "under DIR; a rerun after a crash skips finished chunks "
        f"(supported: {', '.join(sorted(RESUMABLE_EXPERIMENTS))})",
    )
    args = parser.parse_args(arguments)

    if args.list or not args.experiments:
        for name, (description, _) in EXPERIMENTS.items():
            physical = " [--physical]" if name in PHYSICAL_EXPERIMENTS else ""
            print(f"{name:12s} {description}{physical}")
        return 0

    requested = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.physical:
        unsupported = [name for name in requested if name not in PHYSICAL_EXPERIMENTS]
        if unsupported:
            parser.error(
                "--physical is not supported by: " + ", ".join(unsupported)
            )
    if args.resume is not None:
        if args.physical:
            parser.error("--resume cannot be combined with --physical")
        unsupported = [
            name for name in requested if name not in RESUMABLE_EXPERIMENTS
        ]
        if unsupported:
            parser.error("--resume is not supported by: " + ", ".join(unsupported))

    from repro.circuit.resilience import SweepExecutionError

    for name in requested:
        description, runner = EXPERIMENTS[name]
        if args.physical:
            description += " (physical CNT-FET stack)"
            runner = PHYSICAL_EXPERIMENTS[name]
        call = runner
        if args.resume is not None:
            policy = _resume_policy(args.resume)
            call = functools.partial(RESUMABLE_EXPERIMENTS[name], policy=policy)
        try:
            rows = call()
        except SweepExecutionError as error:
            # Salvage: persist the structured report, exit with one line.
            report_path = _persist_report(error.report, args.resume)
            print(
                f"repro {name}: FAILED — {error.report.one_line()} "
                f"(report: {report_path})",
                file=sys.stderr,
            )
            return 2
        except Exception as error:  # noqa: BLE001 — boundary of the CLI
            print(
                f"repro {name}: FAILED — {type(error).__name__}: {error}",
                file=sys.stderr,
            )
            return 1
        _print_rows(f"{name} — {description}", rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
