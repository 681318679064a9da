"""One module per paper artefact: regenerates every figure and claim.

* :mod:`repro.experiments.fig1` — CNT vs GNR FET at equal gap.
* :mod:`repro.experiments.fig2` — inverter study (saturation vs not).
* :mod:`repro.experiments.fig4` — contact-resistance degradation.
* Fig. 5 lives in :mod:`repro.benchmarking.fig5` (shared dataset).
* :mod:`repro.experiments.fig6` — CNT tunnel FET.
* :mod:`repro.experiments.table1` — in-text numeric claims.
* :mod:`repro.experiments.integration_stats` — Section V statistics.
* :mod:`repro.experiments.ablations` — design-choice sweeps.
"""

from repro.benchmarking.fig5 import run_fig5_benchmark
from repro.experiments.ablations import (
    run_ballisticity_ablation,
    run_contact_length_ablation,
    run_dark_space_ablation,
)
from repro.experiments.cascade import CascadeResult, run_cascade
from repro.experiments.fabric_density import FabricDensityResult, run_fabric_density
from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.integration_stats import IntegrationResult, run_integration_stats
from repro.experiments.rf_comparison import RFComparisonResult, run_rf_comparison
from repro.experiments.scaling import ScalingResult, run_voltage_scaling
from repro.experiments.table1 import Table1Result, run_table1

__all__ = [
    "CascadeResult",
    "FabricDensityResult",
    "Fig1Result",
    "Fig2Result",
    "Fig4Result",
    "Fig6Result",
    "IntegrationResult",
    "RFComparisonResult",
    "ScalingResult",
    "Table1Result",
    "run_ballisticity_ablation",
    "run_cascade",
    "run_contact_length_ablation",
    "run_dark_space_ablation",
    "run_fabric_density",
    "run_fig1",
    "run_fig2",
    "run_fig4",
    "run_fig5_benchmark",
    "run_fig6",
    "run_integration_stats",
    "run_rf_comparison",
    "run_voltage_scaling",
    "run_table1",
]
