"""Section V — wafer-scale integration statistics, end to end.

Regenerates the quantitative story behind the paper's integration
discussion:

* as-grown material is ~2/3 semiconducting (chirality statistics);
* sorting trades yield for purity (passes to reach 4-6 nines);
* placement fills sites with Poisson statistics (quartz-aligned growth
  and Park-style trench deposition, the >10,000-FET experiment);
* a 10,000-device CNFET array Monte Carlo gives the measurable pass
  fraction;
* the Shulaker one-bit computer's yield versus purity, with and without
  metallic-CNT removal, plus the *functional* yield measured by actually
  running the counting and sorting programs on fault-injected gate-level
  hardware;
* the same tube statistics pushed down to circuit level: a batched
  inverter Monte Carlo (:class:`repro.circuit.sweep.CircuitMonteCarlo`)
  measures how the array's on-current spread widens the mid-swing
  output distribution of a logic stage, and a batched *transient*
  Monte Carlo (:class:`repro.circuit.sweep.CircuitTransientMC` via
  :func:`repro.analysis.timing.delay_energy_distribution`) measures the
  gate-delay sigma the same spread implies for switching speed.

Every Monte Carlo here runs through the batched sweep engine under the
one ``policy``, so the whole pipeline is reproducible from the single
``seed`` regardless of chunking or process-pool execution, and a pooled
policy (``workers`` > 1) parallelises every Monte Carlo stage, the
Python-heavy functional-yield trials most of all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.timing import delay_energy_distribution
from repro.circuit.cells import build_inverter
from repro.circuit.sweep import CircuitMonteCarlo, ExecutionPolicy, FETVariation
from repro.circuit.waveforms import DC
from repro.devices.empirical import AlphaPowerFET
from repro.integration.growth import GrowthDistribution
from repro.integration.placement import AlignedGrowth, TrenchDeposition
from repro.integration.sorting import GEL_CHROMATOGRAPHY, passes_to_reach_purity
from repro.integration.variability import (
    ArraySpec,
    CNFETArrayModel,
    array_drive_sigma,
)
from repro.integration.yields import GateYieldModel, shulaker_computer_yield
from repro.logic.faults import functional_yield

__all__ = ["IntegrationResult", "run_integration_stats", "inverter_variability_sigma_v"]

VDD = 1.0


@dataclass(frozen=True)
class IntegrationResult:
    """Headline numbers of the Section V pipeline."""

    semiconducting_fraction: float
    passes_to_4nines: int
    sorting_yield_4nines: float
    trench_fill_fraction: float
    aligned_usable_fraction: float
    array_pass_fraction: float
    array_short_fraction: float
    computer_yield_no_removal: float
    computer_yield_with_removal: float
    functional_yield_mc: float
    inverter_vm_sigma_mv: float
    inverter_delay_sigma_ps: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("as-grown semiconducting fraction", self.semiconducting_fraction),
            ("gel passes to 99.99 %", float(self.passes_to_4nines)),
            ("material yield at 99.99 %", self.sorting_yield_4nines),
            ("trench fill fraction (Park)", self.trench_fill_fraction),
            ("aligned-growth usable sites", self.aligned_usable_fraction),
            ("10k-array pass fraction", self.array_pass_fraction),
            ("10k-array short fraction", self.array_short_fraction),
            ("178-FET computer yield, no removal", self.computer_yield_no_removal),
            ("178-FET computer yield, with VMR", self.computer_yield_with_removal),
            ("functional yield (program MC)", self.functional_yield_mc),
            ("inverter V_M sigma [mV]", self.inverter_vm_sigma_mv),
            ("inverter delay sigma [ps]", self.inverter_delay_sigma_ps),
        ]


def inverter_variability_sigma_v(
    drive_sigma: float,
    n_instances: int = 256,
    seed: int = 0,
    vdd: float = VDD,
    n_levels: int = 13,
    device=None,
    policy: ExecutionPolicy | None = None,
) -> float:
    """Std-dev [V] of an inverter's switching threshold under drive spread.

    For each input level of a ladder around ``vdd/2``, all
    ``n_instances`` drive-perturbed inverter copies are solved in one
    batched :class:`~repro.circuit.sweep.CircuitMonteCarlo` run; each
    instance's switching threshold ``V_M`` (where ``v_out = v_in``) is
    then interpolated from its own transfer-curve samples.  The spread
    of ``V_M`` is the noise-margin erosion the paper's tube statistics
    imply for a logic stage.
    """
    if device is None:
        device = AlphaPowerFET()
    levels = np.linspace(0.25 * vdd, 0.75 * vdd, n_levels)
    outputs = np.empty((n_levels, n_instances))
    solved = np.ones(n_instances, dtype=bool)
    variation = None
    for row, level in enumerate(levels):
        cell = build_inverter(device, vdd=vdd, input_waveform=DC(float(level)))
        engine = CircuitMonteCarlo(cell.circuit)
        if variation is None:
            # One draw shared by every level: instance i is the *same*
            # fabricated inverter all along its transfer curve.
            variation = FETVariation.sample(
                n_instances, len(engine.fet_names), seed=seed, drive_sigma=drive_sigma
            )
        result = engine.run(variation, policy=policy)
        outputs[row] = result.voltage(cell.output_node)
        solved &= result.converged

    # Only instances whose whole transfer-curve ladder converged enter
    # the statistics — an unconverged iterate is not a voltage.
    if not solved.any():
        raise RuntimeError("no instance converged at every input level")
    outputs = outputs[:, solved]
    n_instances = int(np.count_nonzero(solved))

    # v_out - v_in is decreasing along the ladder: one sign change per
    # instance brackets its V_M; interpolate linearly inside the bracket.
    diff = outputs - levels[:, None]
    below = diff < 0.0
    first = np.argmax(below, axis=0)
    bracketed = below.any(axis=0) & (first > 0)
    v_m = np.where(below[0], levels[0], levels[-1]) * np.ones(n_instances)
    idx = first[bracketed]
    d_hi = diff[idx, bracketed]
    d_lo = diff[idx - 1, bracketed]
    t = d_lo / (d_lo - d_hi)
    v_m[bracketed] = levels[idx - 1] + t * (levels[idx] - levels[idx - 1])
    return float(v_m.std())


def run_integration_stats(
    n_array_devices: int = 10000,
    n_functional_trials: int = 120,
    seed: int = 20140312,
    n_circuit_instances: int = 256,
    n_delay_instances: int = 64,
    device=None,
    policy: ExecutionPolicy | None = None,
) -> IntegrationResult:
    """Run the full Section V statistical pipeline.

    ``device`` selects the inverter FET of the circuit-level rows
    (switching-threshold and delay sigmas); the default is the
    behavioural :class:`~repro.devices.empirical.AlphaPowerFET`, and
    the CLI's ``--physical`` stack passes the surrogate-compiled
    CNT-FET instead.
    """
    if device is None:
        device = AlphaPowerFET()
    growth = GrowthDistribution()
    semi_fraction = growth.semiconducting_fraction()

    sorting = passes_to_reach_purity(GEL_CHROMATOGRAPHY, target_purity=0.9999)

    trench = TrenchDeposition(mean_tubes_per_site=2.5)
    aligned = AlignedGrowth(density_per_um=5.0, angular_sigma_deg=1.0)

    array = CNFETArrayModel(
        semiconducting_purity=sorting.purity,
        mean_tubes_per_device=trench.mean_tubes_per_site,
    ).sample_array(
        n_array_devices,
        spec=ArraySpec(),
        seed=seed,
        policy=policy,
    )

    no_removal = shulaker_computer_yield(
        semiconducting_purity=sorting.purity, removal_efficiency=0.0
    )
    with_removal = shulaker_computer_yield(
        semiconducting_purity=sorting.purity, removal_efficiency=0.999
    )

    gate_model = GateYieldModel(
        semiconducting_purity=sorting.purity,
        tubes_per_gate=10.0,
        removal_efficiency=0.999,
    )
    functional = functional_yield(
        gate_model,
        n_trials=n_functional_trials,
        seed=seed,
        policy=policy,
    )

    drive_sigma = array_drive_sigma(array)
    sigma_v = inverter_variability_sigma_v(
        drive_sigma,
        n_instances=n_circuit_instances,
        seed=seed,
        device=device,
        policy=policy,
    )

    # The same drive spread pushed through actual switching transients:
    # one batched CircuitTransientMC run over every fabricated copy.
    delay_dist = delay_energy_distribution(
        device,
        n_delay_instances,
        drive_sigma=drive_sigma,
        seed=seed,
        vdd=VDD,
        policy=policy,
    )

    return IntegrationResult(
        semiconducting_fraction=semi_fraction,
        passes_to_4nines=sorting.n_passes,
        sorting_yield_4nines=sorting.cumulative_yield,
        trench_fill_fraction=trench.fill_fraction(),
        aligned_usable_fraction=aligned.statistics(device_width_um=1.0).p_usable,
        array_pass_fraction=array.pass_fraction,
        array_short_fraction=array.shorted_fraction,
        computer_yield_no_removal=no_removal.circuit_yield,
        computer_yield_with_removal=with_removal.circuit_yield,
        functional_yield_mc=functional.functional_yield,
        inverter_vm_sigma_mv=sigma_v * 1e3,
        inverter_delay_sigma_ps=delay_dist.delay_sigma_s * 1e12,
    )
