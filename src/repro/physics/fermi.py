"""Fermi-Dirac statistics helpers used by the transport models.

The numerical Landauer integrals (the tunnel FET's band-to-band window,
the Schottky-contact injection) need the occupation function, and the
ballistic subband current needs the order-0 Fermi-Dirac integral

    F0(eta) = ln(1 + exp(eta)),

which gives the Landauer current of a single 1D subband in closed form.
Both functions are numerically safe for large |eta| and vectorised over
numpy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.physics.constants import KB_EV, ROOM_TEMPERATURE_K

__all__ = [
    "fermi_dirac",
    "fermi_integral_f0",
]


def fermi_dirac(energy_ev, mu_ev, temperature_k: float = ROOM_TEMPERATURE_K):
    """Fermi-Dirac occupation f(E) = 1 / (1 + exp((E - mu)/kT)).

    Parameters
    ----------
    energy_ev:
        Energy (scalar or array) [eV].
    mu_ev:
        Chemical potential [eV].
    temperature_k:
        Temperature [K]; must be positive.
    """
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    eta = (np.asarray(energy_ev, dtype=float) - mu_ev) / (KB_EV * temperature_k)
    # exp overflow guard: for eta > ~500 the occupation is exactly 0/1 in
    # double precision, so clip before exponentiating.
    eta = np.clip(eta, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(eta))


def fermi_integral_f0(eta):
    """Order-0 Fermi-Dirac integral F0(eta) = ln(1 + exp(eta)).

    Uses ``log1p`` for eta < 0 and the identity
    ``F0(eta) = eta + log1p(exp(-eta))`` for eta >= 0, so the result is
    accurate over the full double-precision range.
    """
    eta = np.asarray(eta, dtype=float)
    out = np.where(
        eta < 0.0,
        np.log1p(np.exp(np.minimum(eta, 0.0))),
        eta + np.log1p(np.exp(-np.abs(eta))),
    )
    if out.ndim == 0:
        return float(out)
    return out
