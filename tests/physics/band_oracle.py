"""Independent band-structure references for the ballistic solver.

The top-of-barrier solver never forms E(k) on a wavevector grid or a
quantum capacitance: it integrates charge on a unit grid in closed form
and takes the charge derivative dN/dU analytically from the
occupancies.  The plain forms here — the hyperbolic dispersion, its
inverse, the per-subband unit-grid energies and C_Q on a dense k grid —
let the tests hold both to a second derivation.  Only tests import this
module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.physics.bands import BandStructure1D, Subband
from repro.physics.constants import HBAR, KB_EV, Q, ROOM_TEMPERATURE_K


def dispersion_ev(band: Subband, k_per_m):
    """Dispersion E(k) = sqrt(E_edge^2 + (hbar v_F k)^2) [eV above midgap]."""
    hbar_v_k = HBAR * band.fermi_velocity * np.asarray(k_per_m, dtype=float) / Q
    return np.sqrt(band.edge_ev**2 + hbar_v_k**2)


def wavevector_per_m(band: Subband, energy_ev):
    """Inverse dispersion k(E) [1/m] for energies at/above the edge."""
    energy_ev = np.asarray(energy_ev, dtype=float)
    arg = np.clip(energy_ev**2 - band.edge_ev**2, 0.0, None)
    return np.sqrt(arg) * Q / (HBAR * band.fermi_velocity)


def energy_kt_on_grids(band: Subband, e_top_ev, t_squared: np.ndarray, kt_ev: float):
    """Dispersion E(k) / kT on the grids k = k(E_top) t, one row per E_top.

    ``t_squared`` holds t^2 for the grid points t in [0, 1].  On such a
    grid the hyperbolic dispersion reads
    E^2 = E_edge^2 + (E_top^2 - E_edge^2) t^2, so no wavevector is
    formed.  The result is a fresh (len(e_top), len(t)) array.
    """
    e_top = np.asarray(e_top_ev, dtype=float)
    energy = ((e_top**2 - band.edge_ev**2) / kt_ev**2)[:, None] * t_squared
    energy += (band.edge_ev / kt_ev) ** 2
    return np.sqrt(energy, out=energy)


def quantum_capacitance_per_m(
    bands: BandStructure1D,
    mu_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """Quantum capacitance C_Q = q^2 dN/dmu of a 1D channel [F/m].

    Integrated in k-space per subband to sidestep the van Hove
    singularities of the DOS.  Only conduction-band electrons are counted
    (mirror-band holes would add symmetrically).
    """
    kt = KB_EV * temperature_k
    total = 0.0
    for band in bands.subbands:
        # Integrate g/(pi) * dk * (-df/dE); sample k out to where the band
        # sits ~25 kT above max(mu, edge) so the tail is fully covered.
        e_top = max(mu_ev, band.edge_ev) + 25.0 * kt
        k_max = float(wavevector_per_m(band, e_top))
        k = np.linspace(0.0, k_max, 4001)
        energy = dispersion_ev(band, k)
        x = np.clip((energy - mu_ev) / kt, -250.0, 250.0)
        # -df/dE = 1 / (4 kT cosh^2(x/2))  [1/eV]
        dfde = 1.0 / (4.0 * kt * np.cosh(x / 2.0) ** 2)
        integrand = band.degeneracy / math.pi * dfde  # per unit k
        total += float(np.trapezoid(integrand, k))  # [1 / (eV m)]
    # C_Q = q^2 dN/dmu; converting dN/dmu from 1/(eV m) to 1/(J m) divides
    # by Q, so the net prefactor is a single factor of Q.
    return Q * total
