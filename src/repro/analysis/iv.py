"""I-V curve metrics: SS, on/off currents, saturation quality.

These are the figure-of-merit extractors the paper's comparisons rely
on, including the del Alamo benchmarking methodology used in Fig. 5:
quote I_on at a fixed supply window above the gate voltage where the
device leaks exactly I_off = 100 nA/um.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "subthreshold_swing_mv_per_decade",
    "ion_ioff_ratio",
    "ion_at_fixed_ioff",
    "saturation_index",
]

_CURRENT_FLOOR_A = 1e-30


def subthreshold_swing_mv_per_decade(vgs, current_a) -> float:
    """Minimum subthreshold swing [mV/dec] of a transfer curve."""
    vgs = np.asarray(vgs, dtype=float)
    current = np.clip(np.asarray(current_a, dtype=float), _CURRENT_FLOOR_A, None)
    if vgs.size < 3:
        raise ValueError("need at least 3 sweep points")
    log_i = np.log10(current)
    dlog = np.diff(log_i)
    dv = np.diff(vgs)
    valid = dlog > 1e-12
    if not np.any(valid):
        raise ValueError("transfer curve never increases; no swing defined")
    return float(np.min(dv[valid] / dlog[valid])) * 1e3


def ion_ioff_ratio(vgs, current_a, v_off: float, v_on: float) -> float:
    """I_on / I_off between two gate voltages on a transfer curve."""
    vgs = np.asarray(vgs, dtype=float)
    current = np.clip(np.asarray(current_a, dtype=float), _CURRENT_FLOOR_A, None)
    i_off = float(np.interp(v_off, vgs, current))
    i_on = float(np.interp(v_on, vgs, current))
    return i_on / i_off


def ion_at_fixed_ioff(
    vgs, current_a, supply_window_v: float, ioff_target_a: float
) -> float:
    """On-current at a fixed off-current — the del Alamo / Fig. 5 metric.

    Finds the gate voltage where the curve leaks exactly ``ioff_target_a``
    and returns the current one supply window above it.  Interpolation is
    done on log-current, matching how benchmark plots are constructed.
    """
    if supply_window_v <= 0.0:
        raise ValueError(f"supply window must be positive, got {supply_window_v}")
    vgs = np.asarray(vgs, dtype=float)
    current = np.clip(np.asarray(current_a, dtype=float), _CURRENT_FLOOR_A, None)
    log_i = np.log10(current)
    target = np.log10(ioff_target_a)
    if target < log_i[0] or target > log_i[-1]:
        raise ValueError(
            f"off-current target {ioff_target_a:g} A outside curve range; "
            "extend the gate sweep"
        )
    v_off = float(np.interp(target, log_i, vgs))
    v_on = v_off + supply_window_v
    if v_on > vgs[-1]:
        raise ValueError(
            f"on-state gate voltage {v_on:.3f} V beyond sweep end {vgs[-1]:.3f} V"
        )
    return float(10.0 ** np.interp(v_on, vgs, log_i))


def saturation_index(vds, current_a, knee_fraction: float = 0.3) -> float:
    """How saturated an output curve is, in [0, 1].

    Compares the differential conductance well above the knee with the
    ohmic conductance at the origin: 1 - g_sat / g_ohmic.  A perfect
    current source scores 1; a resistor — the paper's "real GNR" — scores
    ~0.  ``knee_fraction`` sets where the "saturation region" begins as a
    fraction of the V_DS span.
    """
    vds = np.asarray(vds, dtype=float)
    current = np.asarray(current_a, dtype=float)
    if vds.size < 5:
        raise ValueError("need at least 5 output-curve points")
    if not 0.0 < knee_fraction < 0.9:
        raise ValueError(f"knee fraction must be in (0, 0.9), got {knee_fraction}")
    span = vds[-1] - vds[0]
    ohmic_mask = vds <= vds[0] + 0.15 * span
    sat_mask = vds >= vds[0] + (1.0 - knee_fraction) * span
    if ohmic_mask.sum() < 2 or sat_mask.sum() < 2:
        raise ValueError("output sweep too coarse for saturation analysis")
    g_ohmic = np.polyfit(vds[ohmic_mask], current[ohmic_mask], 1)[0]
    g_sat = np.polyfit(vds[sat_mask], current[sat_mask], 1)[0]
    if g_ohmic <= 0.0:
        raise ValueError("output curve has non-positive ohmic conductance")
    return float(np.clip(1.0 - g_sat / g_ohmic, 0.0, 1.0))
