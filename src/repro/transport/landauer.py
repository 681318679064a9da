"""Landauer transport: the ballistic current of one 1D subband.

The Landauer current through a 1D conductor is

    I = (q / h) * integral M(E) T(E) [f_S(E) - f_D(E)] dE

with M(E) the mode count and T(E) the transmission.  For a single
parabolic-free subband with constant transmission the integral has the
closed form used throughout the ballistic FET literature:

    I_j = g_j T_j (q kT / h) [F0(eta_S) - F0(eta_D)],
    eta = (mu - E_edge) / kT,  F0(x) = ln(1 + e^x).

:class:`repro.transport.ballistic.TopOfBarrierSolver` sums it over the
subbands at the self-consistent barrier.
"""

from __future__ import annotations

from repro.physics.constants import H, KB, Q, ROOM_TEMPERATURE_K
from repro.physics.fermi import fermi_integral_f0

__all__ = ["subband_ballistic_current"]


def subband_ballistic_current(
    edge_ev: float,
    degeneracy: int,
    mu_source_ev: float,
    mu_drain_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
    transmission: float = 1.0,
) -> float:
    """Ballistic current [A] of one subband with constant transmission."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    kt_ev = KB * temperature_k / Q
    eta_s = (mu_source_ev - edge_ev) / kt_ev
    eta_d = (mu_drain_ev - edge_ev) / kt_ev
    prefactor = degeneracy * transmission * Q * KB * temperature_k / H
    return prefactor * (fermi_integral_f0(eta_s) - fermi_integral_f0(eta_d))
