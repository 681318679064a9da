"""Reference BTBT transmission and current by adaptive quadrature.

Independent of the closed form in ``repro.transport.tunneling``: the WKB
action is integrated over *position*, through the exponential band
profile itself, and the Landauer current over energy, both with scipy's
``quad`` at ``epsrel = 1e-13``.  Slow (a nested quadrature per bias), so
only tests and benchmarks call it.
"""

from __future__ import annotations

import math

import decimal
import numpy as np
from scipy.integrate import quad

from repro.physics.constants import H, HBAR, KB_EV, Q, VFERMI

EPSREL = 1e-13


def imaginary_dispersion_per_m(energy_ev, gap_ev: float, fermi_velocity: float = VFERMI):
    """Two-band evanescent wavevector kappa(E) [1/m] inside the gap.

    ``energy_ev`` is measured from midgap; kappa is maximal at midgap
    (E_g / (2 hbar v_F)) and vanishes at the band edges.
    """
    if gap_ev <= 0.0:
        raise ValueError(f"gap must be positive, got {gap_ev}")
    energy_ev = np.asarray(energy_ev, dtype=float)
    half_gap = gap_ev / 2.0
    inside = np.clip((half_gap - energy_ev) * (half_gap + energy_ev), 0.0, None)
    return np.sqrt(inside) * Q / (HBAR * fermi_velocity)


def midgap_ev(profile, x_nm):
    """Local midgap energy [eV] vs position (x < 0 source, x > 0 channel)."""
    x_nm = np.asarray(x_nm, dtype=float)
    response = np.where(
        x_nm < 0.0,
        0.5 * np.exp(x_nm / profile.lambda_nm),
        1.0 - 0.5 * np.exp(-x_nm / profile.lambda_nm),
    )
    return profile.delta_ev * response


def _position_nm(profile, midgap: float, above_channel: float) -> float:
    """Where the (monotone) profile reaches ``midgap`` (``delta < 0``).

    ``above_channel`` is ``midgap - delta``, passed in separately so that
    near the channel's asymptote it keeps the digits ``midgap`` has lost.
    """
    if midgap >= 0.5 * profile.delta_ev:
        return profile.lambda_nm * math.log(2.0 * midgap / profile.delta_ev)
    return -profile.lambda_nm * math.log(-2.0 * above_channel / profile.delta_ev)


def kappa_per_nm(x_nm: float, profile, energy_ev: float, fermi_velocity: float = VFERMI):
    """kappa(E - midgap(x)) [1/nm] at one point, in scalar ``math``.

    The same quantity as ``imaginary_dispersion_per_m(E - midgap_ev(profile,
    x))``, ~10x cheaper per call, which the nested quadrature needs.  The
    two factors of ``h^2 - (E - u)^2`` are formed from ``E + h`` and
    ``(E - delta) - h`` (both exact in floating point inside the tunnel
    window) and the profile's exponential tail, so they keep their
    relative accuracy where the profile is flat and a factor is tiny.
    """
    half_gap = profile.gap_ev / 2.0
    delta = profile.delta_ev
    if x_nm < 0.0:
        midgap = 0.5 * delta * math.exp(x_nm / profile.lambda_nm)
        above = (energy_ev + half_gap) - midgap  # h + (E - u)
        below = (half_gap - energy_ev) + midgap  # h - (E - u)
    else:
        tail = -0.5 * delta * math.exp(-x_nm / profile.lambda_nm)  # u - delta
        above = ((energy_ev - delta) + half_gap) - tail
        below = tail - ((energy_ev - delta) - half_gap)
    return 1e-9 * Q / (HBAR * fermi_velocity) * math.sqrt(max(above * below, 0.0))


def quad_transmission(profile, energy_ev: float, fermi_velocity: float = VFERMI) -> float:
    """T(E) = exp(-2 integral kappa dx), the integral taken over x by ``quad``."""
    lo, hi = profile.tunnel_window_ev()
    if not lo < energy_ev < hi:
        return 0.0
    half_gap = profile.gap_ev / 2.0
    to_channel = energy_ev - profile.delta_ev
    # delta < 0: the midgap falls with x, so E + h is reached first.
    x_start = _position_nm(profile, energy_ev + half_gap, to_channel + half_gap)
    x_end = _position_nm(profile, energy_ev - half_gap, to_channel - half_gap)
    action, _ = quad(
        kappa_per_nm,
        x_start,
        x_end,
        args=(profile, energy_ev, fermi_velocity),
        points=[0.0] if x_start < 0.0 < x_end else None,
        epsrel=EPSREL,
        epsabs=0.0,
        limit=200,
    )
    return math.exp(-2.0 * action)


def occupancy_difference(energy_ev: float, mu_1_ev: float, mu_2_ev: float, temperature_k: float) -> float:
    """f(E - mu_1) - f(E - mu_2) for Fermi-Dirac f, in 40-digit ``decimal``.

    Written as ``(e^b - e^a) / ((1 + e^a)(1 + e^b))`` so that neither
    both reservoirs full nor two nearly equal levels cost precision.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        kt = decimal.Decimal(KB_EV) * decimal.Decimal(temperature_k)
        a = ((decimal.Decimal(energy_ev) - decimal.Decimal(mu_1_ev)) / kt).exp()
        b = ((decimal.Decimal(energy_ev) - decimal.Decimal(mu_2_ev)) / kt).exp()
        return float((b - a) / ((1 + a) * (1 + b)))


def quad_window_integral_ev(
    profile, mu_source_ev: float, mu_channel_ev: float, temperature_k: float, transmission
) -> float:
    """``integral T(E) (f_source - f_channel) dE`` over the tunnel window by ``quad``.

    ``transmission(profile, E)`` supplies T: :func:`quad_transmission` for
    the fully independent reference, or the closed form to check the
    energy rule alone, ~100x faster.
    """
    lo, hi = profile.tunnel_window_ev()
    if lo >= hi:
        return 0.0
    width = hi - lo

    # E = lo + W sin^2(pi t / 2): T(E) has a sqrt(distance) term at both
    # window edges, which quad in E resolved only to ~3e-9 at epsrel 1e-13.
    def integrand(t: float) -> float:
        energy = lo + width * math.sin(0.5 * math.pi * t) ** 2
        occupancy = occupancy_difference(energy, mu_source_ev, mu_channel_ev, temperature_k)
        jacobian = 0.5 * math.pi * width * math.sin(math.pi * t)
        return transmission(profile, energy) * occupancy * jacobian

    # Where the integrand is not smooth: the Fermi steps, and where an end
    # of the forbidden segment crosses the junction midpoint.  A break
    # within rounding of a window edge leaves quad a sliver it mis-estimates
    # (2 % off, seen at a 2e-16 eV bias), and splitting there gains nothing.
    half_gap = profile.gap_ev / 2.0
    kinks = (
        mu_source_ev,
        mu_channel_ev,
        0.5 * profile.delta_ev - half_gap,
        0.5 * profile.delta_ev + half_gap,
    )
    margin = 1e-9 * width
    points = sorted(
        2.0 / math.pi * math.atan2(math.sqrt(p - lo), math.sqrt(hi - p))
        for p in kinks
        if lo + margin < p < hi - margin
    )
    integral, _ = quad(
        integrand, 0.0, 1.0, points=points or None, epsrel=EPSREL, epsabs=0.0, limit=200
    )
    return integral


def quad_btbt_current_a(device, v_gate: float, v_diode: float) -> float:
    """``CNTTunnelFET.btbt_current_a`` by nested adaptive quadrature [A]."""
    from repro.transport.tunneling import JunctionProfile

    u_channel = float(device.channel_midgap_ev(v_gate))
    half_gap = device.gap_ev / 2.0
    delta = float(device.n_conduction_edge_ev(v_diode)) - half_gap - u_channel
    profile = JunctionProfile(device.gap_ev, delta, device.screening_length_nm)
    integral = quad_window_integral_ev(
        profile, -u_channel, v_diode - u_channel, device.temperature_k, quad_transmission
    )
    return -4.0 * Q * Q / H * integral
