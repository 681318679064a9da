"""Figure-of-merit extraction: I-V metrics, VTC metrics, timing/energy."""

from repro.analysis.iv import (
    ion_at_fixed_ioff,
    ion_ioff_ratio,
    saturation_index,
    subthreshold_swing_mv_per_decade,
)
from repro.analysis.rf import (
    RFDistribution,
    RFMetrics,
    rf_metrics,
    rf_metrics_batch,
)
from repro.analysis.snm import ButterflyResult, butterfly_snm
from repro.analysis.timing import (
    DelayMetrics,
    cv_over_i_delay_s,
    intrinsic_energy_delay,
    propagation_delays,
    supply_energy_j,
)
from repro.analysis.vtc import VTCMetrics, analyze_vtc

__all__ = [
    "DelayMetrics",
    "ButterflyResult",
    "RFDistribution",
    "RFMetrics",
    "VTCMetrics",
    "analyze_vtc",
    "butterfly_snm",
    "cv_over_i_delay_s",
    "intrinsic_energy_delay",
    "rf_metrics",
    "rf_metrics_batch",
    "ion_at_fixed_ioff",
    "ion_ioff_ratio",
    "propagation_delays",
    "saturation_index",
    "subthreshold_swing_mv_per_decade",
    "supply_energy_j",
]
