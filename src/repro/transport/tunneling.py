"""Band-to-band and Schottky tunneling for carbon-nanotube junctions.

Supports the paper's Section IV (CNT tunnel FETs): the gated PIN diode of
Fig. 6 turns on by band-to-band tunneling (BTBT) at the p-i junction when
the gate pulls the intrinsic region's bands below the source valence-band
edge.  Two ingredients:

* the **two-band imaginary dispersion** inside a CNT gap (Flietner form),

      kappa(E) = sqrt((E_g/2)^2 - E^2) / (hbar v_F),

  exact for the hyperbolic dispersion used elsewhere in this package, and

* a **WKB transmission** through a junction whose band edges relax over a
  screening length ``lambda`` (exponential profile), integrated over the
  tunnel window with Landauer statistics.

The action integral of kappa across the junction has a closed form: on
each side of the junction the local midgap ``u`` is monotone in position,
so substituting ``x -> u`` turns the position integral into
``lambda * integral sqrt(h^2 - (u - E)^2) / |u - u_0| du`` (``h = E_g/2``,
``u_0`` the side's asymptotic midgap), whose antiderivative is elementary
(Gradshteyn & Ryzhik 2.26).  :func:`junction_btbt_transmission` evaluates
it exactly over the whole junction, with no position grid or cut-off, and
:func:`junction_btbt_integral_ev` integrates the transmission over the
tunnel window with a composite Gauss-Legendre rule.

The uniform-field WKB result serves the Urbach-tail (assisted) current of
the tunnel FET.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.physics.constants import HBAR, KB_EV, Q, VFERMI
from repro.physics.fermi import fermi_dirac

__all__ = [
    "wkb_transmission_uniform_field",
    "JunctionProfile",
    "junction_btbt_transmission",
    "junction_btbt_integral_ev",
]

# Energy rule of junction_btbt_integral_ev: Gauss-Legendre nodes per panel,
# and the panel breaks either side of each reservoir's Fermi level [kT].
# Chosen by measurement against scipy's adaptive quad (epsrel 1e-13):
# worst relative error 1.1e-10 over 400 random junctions (gap 0.3-1.0 eV,
# lambda 1-10 nm, windows 1e-6-2 eV wide, the channel's Fermi level 0-0.15
# eV above its band edge, Fermi-level splits 1e-16-0.8 eV).  16 nodes per
# panel read 5.6e-9 there and 24 nodes 3.1e-11.
_NODES_PER_PANEL = 20
_FERMI_BREAKS_KT = (0.0, -3.0, 3.0, -12.0, 12.0)
_BIASES_PER_BLOCK = 64


def _require_finite(name: str, value, positive: bool = False) -> None:
    values = np.asarray(value, dtype=float)
    ok = np.isfinite(values) & (values > 0.0) if positive else np.isfinite(values)
    if not np.all(ok):
        kind = "positive and finite" if positive else "finite"
        bad = values[~ok] if values.ndim else values
        raise ValueError(f"{name} must be {kind}, got {bad}")


def wkb_transmission_uniform_field(
    gap_ev: float, field_v_per_m, fermi_velocity: float = VFERMI
):
    """WKB BTBT transmission through a uniform field F (scalar or array).

    T = exp(-pi E_g^2 / (4 hbar v_F q F)) — the analytic two-band result
    (integral of kappa over the triangular barrier of width E_g / qF).
    """
    _require_finite("field_v_per_m", field_v_per_m, positive=True)
    # Exponent: pi (E_g[J])^2 / (4 hbar v_F qF); qF [N] is the slope of the
    # potential energy, so the expression is dimensionless.
    exponent = (
        math.pi
        * (gap_ev * Q) ** 2
        / (4.0 * HBAR * fermi_velocity * Q * np.asarray(field_v_per_m, dtype=float))
    )
    return np.exp(-exponent)


@dataclass(frozen=True)
class JunctionProfile:
    """Band-edge profile across a gated p-i junction.

    The conduction/valence edges move from the source values to the
    channel values over a screening length ``lambda_nm`` with an
    exponential relaxation — the natural solution of the 1D screened
    Poisson equation that also defines the TFET's steepest achievable
    turn-on.  The local midgap is ``delta/2 exp(x/lambda)`` on the source
    side (x < 0) and ``delta (1 - exp(-x/lambda)/2)`` on the channel side.

    Energies are midgap-referenced on the *source* side; ``delta_ev`` is
    the electrostatic potential-energy shift of the channel relative to
    the source (negative = channel bands pulled down, as under positive
    back-gate drive of the n-side in reverse bias).  ``delta_ev`` may be
    an array: one profile per element, broadcast against the energies.
    """

    gap_ev: float
    delta_ev: float | np.ndarray
    lambda_nm: float

    def __post_init__(self) -> None:
        _require_finite("gap_ev", self.gap_ev, positive=True)
        _require_finite("lambda_nm", self.lambda_nm, positive=True)
        _require_finite("delta_ev", self.delta_ev)

    def tunnel_window_ev(self):
        """Energy window (lo, hi) where source valence overlaps channel conduction.

        Empty (lo >= hi) until the junction is staggered past breakover,
        i.e. until |delta| exceeds the gap.
        """
        source_valence_top = -self.gap_ev / 2.0
        channel_conduction_bottom = self.delta_ev + self.gap_ev / 2.0
        return channel_conduction_bottom, source_valence_top


def _side_action_ev(half_gap, c, w):
    """``integral_{-h}^{w} sqrt(h^2 - t^2) / (t + c) dt`` for ``c >= h`` [eV].

    The elementary antiderivative (Gradshteyn & Ryzhik 2.26) is
    ``s + c asin(w/h) - R asin((h^2 + c w) / (h |w + c|))`` with
    ``s = sqrt(h^2 - w^2)`` and ``R = sqrt(c^2 - h^2)``.  Written that way
    it loses accuracy twice: ``asin`` near +-1 (at the segment ends) and
    ``c - R`` on a full segment.  Here both arcsines become ``atan2`` of
    exact legs, and the ``c`` and ``R`` terms are regrouped as
    ``(c - R) = h^2 / (c + R)`` times one angle plus ``R`` times the
    difference of the two angles.  Against a 40-digit mpmath integral the
    action is then good to 1.3e-15 relative, also within 1e-16 of the
    window edges.  Zero at ``w = -h``, where the second angle's legs are
    ``(0, (c - h)(c + R))``: never negative, even when ``c`` is within
    rounding of ``h``.
    """
    root = np.sqrt((c - half_gap) * (c + half_gap))
    s_squared = (half_gap - w) * (half_gap + w)
    s = np.sqrt(s_squared)
    return (
        s
        + half_gap * half_gap / (c + root) * np.arctan2(s, -w)
        - root * np.arctan2(s * (c + root + w), (c + w) * (c + root) - s_squared)
    )


def _action_ev(half_gap, delta, energy):
    """``integral sqrt(h^2 - (u - E)^2) / |u - u_0| du`` over the forbidden segment.

    The segment ``(E - h, E + h)`` is split at the junction, ``u = delta/2``:
    above it the source side (``u_0 = 0``), below it the channel side
    (``u_0 = delta``).  Each side is :func:`_side_action_ev` in a shifted
    variable; a side the segment misses contributes exactly zero.  Inputs
    outside the tunnel window are clamped so the result stays finite.
    """
    half = 0.5 * delta
    source = _side_action_ev(
        half_gap, np.maximum(-energy, half_gap), np.clip(energy - half, -half_gap, half_gap)
    )
    channel = _side_action_ev(
        half_gap,
        np.maximum(energy - delta, half_gap),
        np.clip(half - energy, -half_gap, half_gap),
    )
    return source + channel


def junction_btbt_transmission(
    profile: JunctionProfile, energy_ev, fermi_velocity: float = VFERMI
):
    """Exact WKB transmission T(E) through the junction's forbidden region.

    T = exp(-2 integral kappa dx) over the classically forbidden segment
    |E - midgap(x)| < E_g/2, evaluated in closed form over the whole
    (unbounded) junction.  ``profile.delta_ev`` broadcasts against
    ``energy_ev``.  Energies outside the tunnel window return 0 (no final
    states); inside it the segment lies strictly within the junction, so
    the action is finite.
    """
    _require_finite("energy_ev", energy_ev)
    energy = np.asarray(energy_ev, dtype=float)
    lo, hi = profile.tunnel_window_ev()
    half_gap = profile.gap_ev / 2.0
    action = _action_ev(half_gap, np.asarray(profile.delta_ev, dtype=float), energy)
    transmission = np.where(
        (lo < energy) & (energy < hi),
        # kappa dx = q lambda / (hbar v_F) * sqrt(h^2 - (u - E)^2) / |u - u_0| du.
        np.exp(-2.0 * Q * profile.lambda_nm * 1e-9 / (HBAR * fermi_velocity) * action),
        0.0,
    )
    if transmission.ndim == 0:
        return float(transmission)
    return transmission


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_n from the usual
    cosine guesses, elementwise numpy only: ``numpy.polynomial.leggauss``
    would import ~0.7 MB of modules and a Golub-Welsch ``eigh`` would page
    in ~1 MB of LAPACK, in every process that imports this module.
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    # Newton converges quadratically from these guesses; the last pass only
    # re-evaluates P_n' at the converged nodes, which the weights need.
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


_NODES, _WEIGHTS = _gauss_legendre(_NODES_PER_PANEL)


def junction_btbt_integral_ev(
    profile: JunctionProfile,
    mu_source_ev,
    mu_channel_ev,
    temperature_k: float = 300.0,
) -> np.ndarray:
    """Landauer energy integral of T(E) (f_source - f_channel) over the window [eV].

    One value per element of ``profile.delta_ev`` (broadcast with the two
    chemical potentials, which share the profile's energy reference).
    Closed windows give exactly 0.

    The rule: the window (lo, hi) is mapped by ``E = lo + W sin^2(pi t/2)``,
    which makes the square-root behaviour of T at both window edges
    smooth in ``t``; it is cut into panels at the two points where the
    forbidden segment's ends cross the junction (``delta/2 -+ h``, where T
    is only C^2) and at each Fermi level and 3 and 12 kT either side of
    it; each panel gets a 20-point Gauss-Legendre rule.  Breaks outside the
    window collapse onto its edges and add nothing, so every bias uses the
    same rule shape and each element's arithmetic is independent of the
    batch.
    """
    delta, mu_source, mu_channel = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (profile.delta_ev, mu_source_ev, mu_channel_ev))
    )
    _require_finite("mu_source_ev", mu_source)
    _require_finite("mu_channel_ev", mu_channel)
    _require_finite("temperature_k", temperature_k, positive=True)
    half_gap = profile.gap_ev / 2.0
    shape = delta.shape
    delta, mu_source, mu_channel = (v.reshape(-1) for v in (delta, mu_source, mu_channel))
    result = np.zeros(delta.size)
    open_rows = np.flatnonzero(delta + half_gap < -half_gap)
    # Blocks of biases bound the (biases x 260)-node temporaries: a whole
    # 401-point curve at once raised a process's peak RSS by ~8 MB.
    for start in range(0, open_rows.size, _BIASES_PER_BLOCK):
        rows = open_rows[start : start + _BIASES_PER_BLOCK]
        block = JunctionProfile(profile.gap_ev, delta[rows, None], profile.lambda_nm)
        result[rows] = _window_integral_ev(
            block, mu_source[rows, None], mu_channel[rows, None], temperature_k
        )
    return result.reshape(shape)


def _window_integral_ev(profile, mu_source, mu_channel, temperature_k):
    """The energy rule of :func:`junction_btbt_integral_ev` on (n, 1) open rows."""
    lo, hi = profile.tunnel_window_ev()
    half = 0.5 * profile.delta_ev
    half_gap = profile.gap_ev / 2.0
    offsets = np.asarray(_FERMI_BREAKS_KT) * (KB_EV * temperature_k)
    breaks = np.concatenate(
        [half - half_gap, half + half_gap, mu_source + offsets, mu_channel + offsets],
        axis=1,
    )
    breaks = np.sort(np.clip(breaks, lo, hi), axis=1)
    t_breaks = (2.0 / np.pi) * np.arctan2(np.sqrt(breaks - lo), np.sqrt(hi - breaks))
    t_breaks = np.concatenate([np.zeros_like(lo), t_breaks, np.ones_like(lo)], axis=1)

    # (n, panels, nodes) from here on.
    lo, mu_source, mu_channel = (v[..., None] for v in (lo, mu_source, mu_channel))
    width = hi - lo
    half_panel = 0.5 * np.diff(t_breaks, axis=1)[..., None]
    t = t_breaks[:, :-1, None] + half_panel * (_NODES + 1.0)
    energy = lo + width * np.sin(0.5 * np.pi * t) ** 2
    jacobian = half_panel * _WEIGHTS * (0.5 * np.pi) * width * np.sin(np.pi * t)

    profile = JunctionProfile(profile.gap_ev, profile.delta_ev[..., None], profile.lambda_nm)
    transmission = junction_btbt_transmission(profile, energy)
    # f(a) - f(b), a and b the reduced energies from the two Fermi levels,
    # without cancellation: as f(a) f(-b) - f(b) f(-a), which keeps its digits
    # where both reservoirs are full (or empty) and the plain difference
    # loses them all, and as f(-a) f(b) expm1(b - a) where the levels sit
    # within kT of each other, so a vanishing bias gives a vanishing current.
    split = (mu_source - mu_channel) / (KB_EV * temperature_k)
    f_a, f_b = (fermi_dirac(energy, mu, temperature_k) for mu in (mu_source, mu_channel))
    f_not_a, f_not_b = (fermi_dirac(mu, energy, temperature_k) for mu in (mu_source, mu_channel))
    occupancy = np.where(
        np.abs(split) < 1.0,
        f_not_a * f_b * np.expm1(np.clip(split, -1.0, 1.0)),
        f_a * f_not_b - f_b * f_not_a,
    )
    return np.sum((jacobian * transmission * occupancy).reshape(len(lo), -1), axis=-1)
