"""Independent Landauer references for the ballistic transport layer.

Scalar, loop-per-subband forms of quantities the production code gets
another way: the total ballistic current over a band structure (the
top-of-barrier solver sums the closed-form subband current at its
solved barrier), the energy-grid Landauer integral (the closed form
integrates it analytically), and the small-bias conductance from the
thermal occupation of each subband (the closed form's slope at zero
bias).  Only tests import this module.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.physics.bands import BandStructure1D
from repro.physics.constants import H, KB, Q, ROOM_TEMPERATURE_K
from repro.physics.fermi import fermi_dirac
from repro.transport.landauer import subband_ballistic_current


def ballistic_current(
    bands: BandStructure1D,
    barrier_shift_ev: float,
    mu_source_ev: float,
    mu_drain_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
    transmission: float = 1.0,
) -> float:
    """Total ballistic electron current [A] over all conduction subbands.

    ``barrier_shift_ev`` displaces every subband edge rigidly (the
    self-consistent top-of-barrier potential); edges are taken relative to
    the band structure's own reference, so callers supply chemical
    potentials on the same scale.
    """
    total = 0.0
    for band in bands.subbands:
        total += subband_ballistic_current(
            edge_ev=band.edge_ev + barrier_shift_ev,
            degeneracy=band.degeneracy,
            mu_source_ev=mu_source_ev,
            mu_drain_ev=mu_drain_ev,
            temperature_k=temperature_k,
            transmission=transmission,
        )
    return total


def numeric_landauer_current(
    transmission_fn: Callable[[np.ndarray], np.ndarray],
    mu_source_ev: float,
    mu_drain_ev: float,
    e_min_ev: float,
    e_max_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
    degeneracy: int = 4,
    n_points: int = 2001,
) -> float:
    """General Landauer integral I = (g q / h) int T(E) (f_S - f_D) dE [A].

    ``transmission_fn`` receives energies [eV] and returns the per-mode
    transmission (mode count folded in by the caller if needed beyond the
    overall ``degeneracy``).
    """
    if e_max_ev <= e_min_ev:
        raise ValueError(f"empty energy window [{e_min_ev}, {e_max_ev}]")
    energies = np.linspace(e_min_ev, e_max_ev, n_points)
    transmission = np.clip(np.asarray(transmission_fn(energies), dtype=float), 0.0, None)
    window = fermi_dirac(energies, mu_source_ev, temperature_k) - fermi_dirac(
        energies, mu_drain_ev, temperature_k
    )
    integral_ev = float(np.trapezoid(transmission * window, energies))
    return degeneracy * Q * Q / H * integral_ev  # (q/h) * [eV -> J] = q^2/h per eV


def quantum_conductance(
    bands: BandStructure1D,
    mu_ev: float,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """Small-bias ballistic conductance G = (q^2/h) sum_j g_j <T_j> [S].

    Thermally averaged mode occupation: G = (q^2/h) sum_j g_j F_{-1}(eta_j)
    with eta_j = (mu - E_j)/kT.  At T -> 0 this reduces to the step-wise
    quantum of conductance per occupied subband.
    """
    kt_ev = KB * temperature_k / Q
    conductance = 0.0
    for band in bands.subbands:
        eta = (mu_ev - band.edge_ev) / kt_ev
        occupation = 1.0 / (1.0 + np.exp(np.clip(-eta, -500.0, 500.0)))
        conductance += band.degeneracy * occupation
    return conductance * Q * Q / H
