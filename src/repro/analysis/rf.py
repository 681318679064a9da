"""RF figures of merit: the Section II argument against GNR-FETs.

The paper (after Schwierz's review, its Ref. [8]): to make an RF FET
fast the gate must be short, "however short channel GNR show no current
saturation, which as a consequence leads to very low voltage gain in the
FET and this only enables very low values of the maximum frequency of
oscillation (f_max)".

Quantified here with the standard quasi-static expressions:

    A_v   = gm / gds                                  (intrinsic gain)
    f_T   = gm / (2 pi C_gg)                          (unity current gain)
    f_max = f_T / (2 sqrt(R_g (gds + 2 pi f_T C_gd))) (unity power gain)

A device without saturation has gds of the same order as gm at its bias
point, so A_v <~ 1 and f_max collapses far below f_T, no matter how
short the gate.

gm and gds come from the device protocol's linearization: analytic
derivatives for models that provide them (the surrogates, every
analytic FET), central differences with the model-owned step only as
the protocol's explicit fallback — this module owns no
finite-difference stepping of its own.  :func:`rf_metrics_batch`
evaluates the figures over process corners with one batched
``linearize`` call, feeding the variation-aware distributions of
``experiments/rf_comparison.py``; :func:`rf_metrics` is its
nominal one-corner call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.base import FETModel

__all__ = [
    "RFDistribution",
    "RFMetrics",
    "rf_metrics",
    "rf_metrics_batch",
]


@dataclass(frozen=True)
class RFMetrics:
    """Quasi-static RF figures of merit at one bias point."""

    gm_s: float
    gds_s: float
    ft_hz: float
    fmax_hz: float

    @property
    def intrinsic_gain(self) -> float:
        if self.gds_s <= 0.0:
            return math.inf
        return self.gm_s / self.gds_s


def rf_metrics(
    device: FETModel,
    vgs: float,
    vds: float,
    c_gate_total_f: float,
    c_gate_drain_f: float | None = None,
    gate_resistance_ohm: float = 100.0,
) -> RFMetrics:
    """Compute f_T and f_max for a device at a bias point.

    The one nominal-corner call of :func:`rf_metrics_batch`.

    Parameters
    ----------
    c_gate_total_f:
        Total gate capacitance C_gg [F] (from the device's gate stack).
    c_gate_drain_f:
        Gate-drain (Miller) capacitance; defaults to C_gg / 3, a typical
        self-aligned partition.
    gate_resistance_ohm:
        Series gate resistance entering the f_max expression.
    """
    return rf_metrics_batch(
        device,
        vgs,
        vds,
        c_gate_total_f,
        drive_scale=np.ones(1),
        vth_shift_v=np.zeros(1),
        c_gate_drain_f=c_gate_drain_f,
        gate_resistance_ohm=gate_resistance_ohm,
    ).corner(0)


@dataclass(frozen=True)
class RFDistribution:
    """RF figures of merit over a stack of process corners.

    One entry per corner, in corner order; produced by
    :func:`rf_metrics_batch` from
    :class:`~repro.circuit.sweep.FETVariation` draws.
    """

    gm_s: np.ndarray
    gds_s: np.ndarray
    ft_hz: np.ndarray
    fmax_hz: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.gm_s.shape[0]

    @property
    def intrinsic_gain(self) -> np.ndarray:
        """Per-corner A_v = gm / gds; +inf where gds is clipped to zero."""
        gain = np.full(self.n_instances, np.inf)
        positive = self.gds_s > 0.0
        gain[positive] = self.gm_s[positive] / self.gds_s[positive]
        return gain

    def corner(self, i: int) -> RFMetrics:
        """Corner ``i``'s figures of merit as floats."""
        return RFMetrics(
            gm_s=float(self.gm_s[i]),
            gds_s=float(self.gds_s[i]),
            ft_hz=float(self.ft_hz[i]),
            fmax_hz=float(self.fmax_hz[i]),
        )


def rf_metrics_batch(
    device: FETModel,
    vgs: float,
    vds: float,
    c_gate_total_f: float,
    *,
    drive_scale: np.ndarray,
    vth_shift_v: np.ndarray,
    c_gate_drain_f: float | None = None,
    gate_resistance_ohm: float = 100.0,
) -> RFDistribution:
    """RF figures of merit over process corners, one batched linearization.

    Applies the :class:`~repro.circuit.sweep.FETVariation` perturbation
    semantics — corner ``i`` conducts
    ``drive_scale[i] * I(vgs - vth_shift_v[i], vds)`` — so ``gm`` and
    ``gds`` scale with drive strength and follow the shifted gate
    overdrive.  All corners go through one batched
    :meth:`~repro.devices.base.FETModel.linearize` call (analytic for
    models that provide derivatives); with nominal variation
    (scale 1, shift 0) every entry is bitwise the scalar
    :func:`rf_metrics` value, its one-corner call.
    """
    if c_gate_total_f <= 0.0:
        raise ValueError(f"gate capacitance must be positive, got {c_gate_total_f}")
    if gate_resistance_ohm <= 0.0:
        raise ValueError(f"gate resistance must be positive, got {gate_resistance_ohm}")
    c_gd = c_gate_total_f / 3.0 if c_gate_drain_f is None else c_gate_drain_f
    if c_gd <= 0.0 or c_gd > c_gate_total_f:
        raise ValueError("gate-drain capacitance must be in (0, C_gg]")
    scale = np.atleast_1d(np.asarray(drive_scale, dtype=float))
    shift = np.atleast_1d(np.asarray(vth_shift_v, dtype=float))
    if scale.shape != shift.shape or scale.ndim != 1:
        raise ValueError(
            "drive_scale and vth_shift_v must be matching 1-D corner vectors, "
            f"got {scale.shape} and {shift.shape}"
        )
    _, gm, gds = device.linearize(vgs - shift, np.full(shift.shape, float(vds)))
    gm = gm * scale
    gds = np.maximum(gds * scale, 0.0)
    if np.any(gm <= 0.0):
        raise ValueError("device has no transconductance at this bias")
    ft = gm / (2.0 * math.pi * c_gate_total_f)
    denominator = gate_resistance_ohm * (gds + 2.0 * math.pi * ft * c_gd)
    fmax = np.full(scale.shape, np.inf)
    positive = denominator > 0.0
    fmax[positive] = ft[positive] / (2.0 * np.sqrt(denominator[positive]))
    return RFDistribution(gm_s=gm, gds_s=gds, ft_hz=ft, fmax_hz=fmax)
