"""The benchmark's workloads: set-up, timed cases and the outputs to check.

Each workload runs in a fresh interpreter (``perfbench/worker.py``).
``setup()`` does everything a user pays before the first result —
imports, circuit builds, plan compiles, surrogate disk loads — and
``cases()`` lists the timed cases of one pass in order.  A case is a
list of items, each timed on its own; an item returns the outputs
:mod:`checks` verifies: artefact rows, Monte Carlo results, AC sweeps
and surrogate tables.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20140314

# BENCH_7-10 case shapes (benchmarks/perf_trajectory.py), repeated back
# to back so that each case takes >= 0.2 s per pass on a 2-core VM.
CHAIN_STAGES = 5
DC_INSTANCES = 1000
DC_REPEATS = 12
SPARSE_STAGES = 200
SPARSE_INSTANCES = 256
SPARSE_REPEATS = 2
TRANSIENT_INSTANCES = 256
TRANSIENT_REPEATS = 2
T_STOP_S = 0.2e-9
DT_S = 1e-11
AC_FREQUENCIES = 240
AC_DENSE_STAGES = 100
AC_DENSE_REPEATS = 40
AC_SPARSE_STAGES = 600
AC_CORNERS = 256
DRIVE_SIGMA = 0.15
VTH_SIGMA_V = 0.01


@dataclass
class Rows:
    """Rows of one CLI artefact, as ``python -m repro`` prints them."""

    name: str
    rows: list


@dataclass
class MonteCarlo:
    """One DC or transient Monte Carlo run and what produced it."""

    label: str
    circuit: object
    variation: object
    result: object
    transient: bool = False


@dataclass
class ACSweep:
    """One compiled AC sweep and its plan (for the loop oracle)."""

    label: str
    plan: object
    frequencies: np.ndarray
    samples: np.ndarray


@dataclass
class ACCorners:
    """One batched AC Monte Carlo result."""

    label: str
    result: object


@dataclass
class Table:
    """A compiled surrogate table."""

    label: str
    surrogate: object


class Workload:
    """Base: fresh-process workloads run exactly one pass."""

    single_pass = True

    def __init__(self, seed: int):
        self.seed = seed
        self.state: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cases(self) -> list[tuple[str, list]]:
        """``[(case name, [item, ...]), ...]``; an item returns outputs."""
        raise NotImplementedError


def _import(*modules: str) -> None:
    for module in modules:
        importlib.import_module(module)


def _artefact(name: str):
    from repro.cli import EXPERIMENTS

    return lambda: [Rows(name, EXPERIMENTS[name][1]())]


def _physical_artefacts() -> list:
    from repro.cli import PHYSICAL_EXPERIMENTS

    return [
        lambda name=name, runner=runner: [Rows(f"{name}_physical", runner())]
        for name, runner in PHYSICAL_EXPERIMENTS.items()
    ]


# ``ablations`` solves three ballistic bias points, so it belongs with the
# device physics: circuit_engines must never reach the transport layer.
PAPER_ARTEFACTS = (
    "fig1", "fig4", "fig5", "fig6", "table1", "scaling", "fabric", "ablations"
)
SCALAR_ARTEFACTS = ("fig2", "cascade", "timing", "integration", "rf")


class PaperPhysics(Workload):
    """The device-physics artefacts at the CLI's own parameters."""

    def setup(self) -> None:
        _import(
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

    def cases(self):
        return [(f"{name}_s", [_artefact(name)]) for name in PAPER_ARTEFACTS]


class SurrogateCold(Workload):
    """Cold surrogate compile, then the three --physical experiments."""

    def setup(self) -> None:
        _import(
            "repro.cli",
            "repro.experiments.cascade",
            "repro.experiments.integration_stats",
            "repro.analysis.timing",
            "repro.devices.cntfet",
            "repro.devices.surrogate",
        )

    def cases(self):
        from repro.experiments.cascade import physical_saturating_fet

        return [
            ("compile_s", [lambda: [Table("reference CNT-FET", physical_saturating_fet())]]),
            ("physical_circuits_s", _physical_artefacts()),
        ]


def _variations(n_fets: int, n_instances: int, repeats: int, seed) -> list:
    from repro.circuit.sweep import FETVariation

    return [
        FETVariation.sample(
            n_instances,
            n_fets,
            seed=int(child.generate_state(1)[0]),
            drive_sigma=DRIVE_SIGMA,
            vth_sigma_v=VTH_SIGMA_V,
        )
        for child in seed.spawn(repeats)
    ]


class CircuitEngines(Workload):
    """Compiled engines on behavioural devices plus warm-cache circuits."""

    single_pass = False

    def setup(self) -> None:
        from repro.circuit.sweep import CircuitMonteCarlo, CircuitTransientMC
        from repro.circuit.waveforms import DC, Pulse
        from repro.devices.empirical import AlphaPowerFET
        from repro.experiments.cascade import build_inverter_chain, physical_saturating_fet

        _import(
            "repro.cli",
            "repro.circuit.ac",
            "repro.experiments.fig2",
            "repro.experiments.integration_stats",
            "repro.experiments.rf_comparison",
            "repro.analysis.timing",
        )
        physical_saturating_fet()  # surrogate disk load
        device = AlphaPowerFET()
        streams = iter(np.random.SeedSequence(self.seed).spawn(4))
        state = self.state

        dc_chain = build_inverter_chain(
            device, n_stages=CHAIN_STAGES, input_waveform=DC(0.0)
        )
        state["dc"] = CircuitMonteCarlo(dc_chain)
        state["dc_variations"] = _variations(
            len(state["dc"].fet_names), DC_INSTANCES, DC_REPEATS, next(streams)
        )

        sparse_chain = build_inverter_chain(
            device, n_stages=SPARSE_STAGES, input_waveform=DC(0.0)
        )
        state["sparse"] = CircuitMonteCarlo(sparse_chain)
        if not state["sparse"].plan.use_sparse:
            raise RuntimeError("sparse_mc circuit fell below the sparse threshold")
        state["sparse_variations"] = _variations(
            len(state["sparse"].fet_names),
            SPARSE_INSTANCES,
            SPARSE_REPEATS,
            next(streams),
        )

        stimulus = Pulse(
            v1=0.0, v2=1.0, delay_s=0.02e-9, rise_s=10e-12, fall_s=10e-12,
            width_s=0.09e-9, period_s=0.0,
        )
        transient_chain = build_inverter_chain(
            device, n_stages=CHAIN_STAGES, input_waveform=stimulus
        )
        state["transient"] = CircuitTransientMC(transient_chain)
        state["transient_variations"] = _variations(
            len(state["transient"].fet_names),
            TRANSIENT_INSTANCES,
            TRANSIENT_REPEATS,
            next(streams),
        )

        state["ac_dense"] = build_inverter_chain(
            device, n_stages=AC_DENSE_STAGES, input_waveform=DC(0.0)
        )
        state["ac_sparse"] = build_inverter_chain(
            device, n_stages=AC_SPARSE_STAGES, input_waveform=DC(0.0)
        )
        state["frequencies"] = np.logspace(3, 11, AC_FREQUENCIES)
        state["ac_corners"] = _variations(
            2 * CHAIN_STAGES, AC_CORNERS, 1, next(streams)
        )[0]

    def _monte_carlo(self, label: str, transient: bool = False) -> list:
        engine = self.state[label]
        extra = (T_STOP_S, DT_S) if transient else ()

        def item(k: int, variation):
            result = engine.run(variation, *extra)
            return [
                MonteCarlo(f"{label}_mc[{k}]", engine.circuit, variation, result, transient)
            ]

        return [
            lambda k=k, v=v: item(k, v)
            for k, v in enumerate(self.state[f"{label}_variations"])
        ]

    def _ac_sweep(self, chain: str, repeats: int):
        from repro.circuit.ac import ACPlan

        frequencies = self.state["frequencies"]
        plan = ACPlan(self.state[chain], "VIN")
        for _ in range(repeats - 1):
            plan.sweep_samples(frequencies)
        return [
            ACSweep(f"ac_{plan.size}", plan, frequencies, plan.sweep_samples(frequencies))
        ]

    def _ac_monte_carlo(self):
        from repro.circuit.ac import ac_monte_carlo

        corners = ac_monte_carlo(
            self.state["dc"].circuit,
            "VIN",
            self.state["frequencies"],
            self.state["ac_corners"],
        )
        return [ACCorners("ac_monte_carlo", corners)]

    def cases(self):
        return [
            ("dc_mc_s", self._monte_carlo("dc")),
            ("sparse_mc_s", self._monte_carlo("sparse")),
            ("transient_mc_s", self._monte_carlo("transient", transient=True)),
            (
                "ac_s",
                [
                    lambda: self._ac_sweep("ac_dense", AC_DENSE_REPEATS),
                    lambda: self._ac_sweep("ac_sparse", 1),
                    self._ac_monte_carlo,
                ],
            ),
            ("scalar_circuits_s", [_artefact(name) for name in SCALAR_ARTEFACTS]),
            ("physical_circuits_s", _physical_artefacts()),
        ]


WORKLOADS = {
    "paper_physics": PaperPhysics,
    "surrogate_cold": SurrogateCold,
    "circuit_engines": CircuitEngines,
}
