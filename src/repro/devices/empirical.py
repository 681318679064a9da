"""Empirical FET models for the paper's inverter study and references.

The paper's Fig. 2 compares inverters built from two behavioural devices:

* a **well-behaved FET** with current saturation — modelled here with a
  smooth alpha-power-law (Sakurai-Newton) characteristic including
  subthreshold turn-off and mild channel-length modulation ("a more
  realistic model as it has not a perfect saturation behaviour"), and
* a **FET without current saturation** — a gate-voltage-steered linear
  resistor with the same on-current and a smooth subthreshold turn-off,
  the paper's empirical description of measured GNR-FETs.

Both are intentionally phenomenological: Fig. 2's argument is about I-V
*shape*, not material physics.  The bilinear :class:`TabulatedFET` for
devices defined by measured/published grids lives with the surrogate
machinery in :mod:`repro.devices.surrogate` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.devices.base import FETModel, OperatingBox, mirror_symmetric_linearize
from repro.devices.surrogate import TabulatedFET
from repro.physics.constants import thermal_voltage

__all__ = ["AlphaPowerFET", "NonSaturatingFET", "TabulatedFET"]


def _softplus(x: float) -> float:
    """Numerically safe softplus ln(1 + e^x)."""
    if x > 35.0:
        return x
    if x < -35.0:
        return math.exp(x)
    return math.log1p(math.exp(x))


def _softplus_array(x: np.ndarray, with_slope: bool = False):
    """Elementwise :func:`_softplus` with identical branch thresholds.

    ``with_slope`` also returns the derivative (see
    :func:`_softplus_with_slope`).
    """
    x = np.asarray(x, dtype=float)
    # exp(min(x, 35)) equals exp(x) exactly on the x < -35 branch, so one
    # exponential serves both the mid (log1p) and deep-subthreshold cases.
    exp_x = np.exp(np.minimum(x, 35.0))
    value = np.where(x > 35.0, x, np.where(x < -35.0, exp_x, np.log1p(exp_x)))
    if not with_slope:
        return value
    return value, exp_x / (1.0 + exp_x)


def _softplus_with_slope(x: float) -> tuple[float, float]:
    """:func:`_softplus` and its derivative ``e / (1 + e)``, ``e = exp(min(x, 35))``.

    The capped exponential cannot overflow, and the one expression is
    each branch's own derivative to within 7e-16 relative: it reads
    ``1 - 6.3e-16`` on the linear branch above 35 and ``e^x`` times
    ``1 / (1 + e^x)`` (within 7e-16 of 1) on the exponential branch
    below -35.
    """
    exp_x = math.exp(min(x, 35.0))
    return _softplus(x), exp_x / (1.0 + exp_x)


# The elementwise primitives of the two linearization routes — floats for
# ``linearize_point`` (bitwise the scalar ``current``), arrays for
# ``linearize`` (bitwise ``currents``) — so one derivative formula serves
# both.
_FLOAT_OPS = SimpleNamespace(
    softplus=_softplus_with_slope,
    tanh=math.tanh,
    cosh=math.cosh,
    minimum=min,
    maximum=max,
)
_ARRAY_OPS = SimpleNamespace(
    softplus=lambda x: _softplus_array(x, with_slope=True),
    tanh=np.tanh,
    cosh=np.cosh,
    minimum=np.minimum,
    maximum=np.maximum,
)


@dataclass(frozen=True)
class AlphaPowerFET(FETModel):
    """Smooth alpha-power-law FET with saturation (Sakurai-Newton form).

    I_D = k * Vov^alpha * tanh(vds / vdsat) * (1 + lambda vds),
    Vov  = n vT * softplus((vgs - vt) / (n vT))     (subthreshold blend),
    vdsat = sat_fraction * Vov.

    Attributes
    ----------
    k_a_per_v_alpha:
        Current factor [A / V^alpha]; sets the on-current scale.
    vt:
        Threshold voltage [V].
    alpha:
        Velocity-saturation index; 2 = long-channel square law, ~1.3 for
        short-channel devices.
    sat_fraction:
        V_dsat / V_ov; smaller saturates earlier (better output curves).
    channel_modulation:
        lambda [1/V], the finite output conductance in saturation.
    subthreshold_ideality:
        n >= 1 in SS = n * kT/q * ln 10.
    """

    k_a_per_v_alpha: float = 4.0e-4
    vt: float = 0.25
    alpha: float = 1.4
    sat_fraction: float = 0.45
    channel_modulation: float = 0.15
    subthreshold_ideality: float = 1.1
    temperature_k: float = 300.0

    def __post_init__(self) -> None:
        if self.k_a_per_v_alpha <= 0.0:
            raise ValueError(f"k must be positive, got {self.k_a_per_v_alpha}")
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not 0.0 < self.sat_fraction <= 1.0:
            raise ValueError(f"sat_fraction must be in (0,1], got {self.sat_fraction}")
        if self.channel_modulation < 0.0:
            raise ValueError("channel modulation must be >= 0")
        if self.subthreshold_ideality < 1.0:
            raise ValueError("subthreshold ideality must be >= 1")
        object.__setattr__(
            self,
            "_softplus_width",
            self.subthreshold_ideality
            * thermal_voltage(self.temperature_k)
            * self.alpha,
        )

    def overdrive(self, vgs: float) -> float:
        """Smoothed overdrive voltage Vov [V] (exponential below threshold).

        The softplus width is n vT alpha, so that I ~ Vov^alpha decays as
        exp((vgs - vt)/(n vT)) below threshold — i.e. the subthreshold
        swing is exactly n * 60 mV/dec regardless of alpha.
        """
        width = self._softplus_width
        return width * _softplus((vgs - self.vt) / width)

    def saturation_voltage(self, vgs: float) -> float:
        """V_dsat [V] at the given gate bias."""
        return max(self.sat_fraction * self.overdrive(vgs), 1e-6)

    def current(self, vgs: float, vds: float) -> float:
        if vds < 0.0:
            # Source/drain exchange symmetry of a symmetric device.
            return -self.current(vgs - vds, -vds)
        overdrive = self.overdrive(vgs)
        vdsat = self.saturation_voltage(vgs)
        saturation = math.tanh(vds / vdsat)
        return (
            self.k_a_per_v_alpha
            * overdrive**self.alpha
            * saturation
            * (1.0 + self.channel_modulation * vds)
        )

    def _forward_currents(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Elementwise alpha-power current on the vds >= 0 quadrant.

        The base-class ``currents`` wraps this hook in the shared
        source/drain mirror transform.
        """
        width = self._softplus_width
        overdrive = width * _softplus_array((vgs - self.vt) / width)
        vdsat = np.maximum(self.sat_fraction * overdrive, 1e-6)
        return (
            self.k_a_per_v_alpha
            * overdrive**self.alpha
            * np.tanh(vds / vdsat)
            * (1.0 + self.channel_modulation * vds)
        )

    def linearize(self, vgs_values, vds_values):
        """Exact ``(id, gm, gds)`` in one pass.

        ``id`` is bitwise :meth:`currents`; the derivatives are those of
        :meth:`_forward_linearize` under the mirror chain rule.
        """
        return mirror_symmetric_linearize(
            self._forward_linearize, vgs_values, vds_values
        )

    def linearize_point(self, vgs: float, vds: float):
        return mirror_symmetric_linearize(
            self._forward_linearize_point, float(vgs), float(vds)
        )

    def _forward_linearize_point(self, vgs: float, vds: float):
        return self._forward_linearize(vgs, vds, _FLOAT_OPS)

    def _forward_linearize(self, vgs, vds, ops=_ARRAY_OPS):
        """``(I, dI/dvgs, dI/dvds)`` on the vds >= 0 quadrant.

        With ``T = tanh(vds / vdsat)`` and ``C = 1 + lambda vds``:

            dI/dvgs = C softplus' [k alpha Vov^(alpha-1) T
                                   - k Vov^alpha sech^2 (vds/vdsat) vdsat'/vdsat]
            dI/dvds = k Vov^alpha [sech^2 C / vdsat + lambda T]

        ``vdsat' = sat_fraction`` above the 1e-6 V clamp and 0 on it.
        Nothing divides by ``Vov``, which underflows to 0 in deep
        subthreshold, and ``vds/vdsat`` (huge where ``vdsat`` is
        clamped) only enters through the capped ``cosh``.
        """
        width = self._softplus_width
        softplus, slope = ops.softplus((vgs - self.vt) / width)
        overdrive = width * softplus
        scaled = self.sat_fraction * overdrive
        vdsat = ops.maximum(scaled, 1e-6)
        ratio = vds / vdsat
        saturation = ops.tanh(ratio)
        clm = 1.0 + self.channel_modulation * vds
        drive = self.k_a_per_v_alpha * overdrive**self.alpha
        current = drive * saturation * clm
        # k Vov^alpha sech^2(ratio) / vdsat, shared by both derivatives;
        # capping cosh's argument keeps cosh^2 finite (sech^2 < 1e-303
        # beyond the cap).
        cosh = ops.cosh(ops.minimum(ratio, 350.0))
        sat_slope = drive / (vdsat * cosh * cosh)
        d_drive = self.k_a_per_v_alpha * self.alpha * overdrive ** (self.alpha - 1.0)
        d_vdsat = self.sat_fraction * (scaled > 1e-6)
        gm = clm * slope * (d_drive * saturation - sat_slope * ratio * d_vdsat)
        gds = sat_slope * clm + self.channel_modulation * drive * saturation
        return current, gm, gds


@dataclass(frozen=True)
class NonSaturatingFET(FETModel):
    """Gate-steered linear resistor: the paper's "real GNR" behaviour.

    I_D = G(vgs) * vds with no saturation at any drain bias;
    G(vgs) = g_on * softplus((vgs - vt)/w) / softplus((v_on - vt)/w)
    turns the device off smoothly below threshold while keeping the
    above-threshold conductance roughly linear in gate drive, as measured
    on sub-10 nm GNR devices (paper Refs. [4, 5]).

    The conductance is steered by the gate-*source* voltage at either
    drain polarity (``I(vgs, -vds) = -I(vgs, vds)``), so the device does
    **not** obey the source/drain exchange transform — surrogate
    compilation tabulates both drain polarities directly.
    """

    mirror_symmetric = False

    g_on_s: float = 2.0e-4
    vt: float = 0.2
    v_on: float = 1.0
    smoothing_v: float = 0.12

    def __post_init__(self) -> None:
        if self.g_on_s <= 0.0:
            raise ValueError(f"on-conductance must be positive, got {self.g_on_s}")
        if self.smoothing_v <= 0.0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing_v}")
        if self.v_on <= self.vt:
            raise ValueError("v_on must exceed vt")
        object.__setattr__(
            self,
            "_conductance_norm",
            _softplus((self.v_on - self.vt) / self.smoothing_v),
        )

    def operating_box(self) -> OperatingBox:
        # Both drain polarities are physical operating territory for the
        # gate-steered resistor; surrogates tabulate the full range.
        box = OperatingBox()
        return OperatingBox(
            vgs_min=box.vgs_min,
            vgs_max=box.vgs_max,
            vds_min=-box.vds_max,
            vds_max=box.vds_max,
        )

    def conductance(self, vgs: float) -> float:
        """Channel conductance G(V_GS) [S]."""
        shape = _softplus((vgs - self.vt) / self.smoothing_v)
        return self.g_on_s * shape / self._conductance_norm

    def current(self, vgs: float, vds: float) -> float:
        return self.conductance(vgs) * vds

    def currents(self, vgs_values, vds_values) -> np.ndarray:
        vgs = np.asarray(vgs_values, dtype=float)
        vds = np.asarray(vds_values, dtype=float)
        shape = _softplus_array((vgs - self.vt) / self.smoothing_v)
        return self.g_on_s * shape / self._conductance_norm * vds

    def linearize(self, vgs_values, vds_values):
        """Exact ``(G vds, G' vds, G)``."""
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        return self._linearize(vgs, vds, _ARRAY_OPS)

    def linearize_point(self, vgs: float, vds: float):
        return self._linearize(float(vgs), float(vds), _FLOAT_OPS)

    def _linearize(self, vgs, vds, ops):
        shape, slope = ops.softplus((vgs - self.vt) / self.smoothing_v)
        conductance = self.g_on_s * shape / self._conductance_norm
        d_conductance = self.g_on_s * slope / self._conductance_norm / self.smoothing_v
        return conductance * vds, d_conductance * vds, conductance
