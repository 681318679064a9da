"""Exact nearest-neighbour graphene tight binding and CNT zone folding.

The package uses the linearised (Dirac-cone) subband ladder
E_q = a_cc gamma0 / d * |3q + nu| (:meth:`repro.physics.cnt.Chirality.
subband_edges_ev`).  This test reference provides the *exact*
nearest-neighbour dispersion

    E(k) = gamma0 * sqrt(3 + 2 cos(k . a1) + 2 cos(k . a2) + 2 cos(k . (a1 - a2)))

and folds it onto a tube's allowed cutting lines, so the linearisation
can be validated (the tests assert the ladder is exact to a few % for
the low subbands of ~1.5 nm tubes) and trigonal-warping corrections can
be quantified for small-diameter tubes where they matter.  Only tests
import this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.physics.cnt import Chirality
from repro.physics.constants import A_LATTICE_NM, GAMMA0_EV


def graphene_energy_ev(kx_per_nm, ky_per_nm, gamma0_ev: float = GAMMA0_EV):
    """Conduction-band energy [eV] of graphene at wavevector (kx, ky) [1/nm].

    Nearest-neighbour tight binding with the site energy at 0; the
    valence band is the mirror image.  Uses the standard form

        |f(k)|^2 = 3 + 2 cos(k.a1) + 2 cos(k.a2) + 2 cos(k.(a1-a2))

    with lattice vectors a1 = a (sqrt(3)/2, 1/2), a2 = a (sqrt(3)/2, -1/2).
    """
    kx = np.asarray(kx_per_nm, dtype=float)
    ky = np.asarray(ky_per_nm, dtype=float)
    a = A_LATTICE_NM
    k_dot_a1 = a * (math.sqrt(3.0) / 2.0 * kx + 0.5 * ky)
    k_dot_a2 = a * (math.sqrt(3.0) / 2.0 * kx - 0.5 * ky)
    magnitude_sq = (
        3.0
        + 2.0 * np.cos(k_dot_a1)
        + 2.0 * np.cos(k_dot_a2)
        + 2.0 * np.cos(k_dot_a1 - k_dot_a2)
    )
    return gamma0_ev * np.sqrt(np.clip(magnitude_sq, 0.0, None))


def dirac_points() -> list[tuple[float, float]]:
    """The two inequivalent K points [1/nm] where the gap closes.

    K = (2 pi / a) * (1/sqrt(3), 1/3) and K' = (2 pi / a) * (1/sqrt(3), -1/3).
    """
    scale = 2.0 * math.pi / A_LATTICE_NM
    return [
        (scale / math.sqrt(3.0), scale / 3.0),
        (scale / math.sqrt(3.0), -scale / 3.0),
    ]


def _tube_frame_vectors(chirality: Chirality) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors along the tube circumference and axis [dimensionless].

    The chiral vector C = n a1 + m a2 defines the circumference; the axis
    is perpendicular to it.
    """
    a = A_LATTICE_NM
    a1 = np.array([math.sqrt(3.0) / 2.0, 0.5]) * a
    a2 = np.array([math.sqrt(3.0) / 2.0, -0.5]) * a
    chiral = chirality.n * a1 + chirality.m * a2
    circumference = float(np.linalg.norm(chiral))
    unit_circ = chiral / circumference
    unit_axis = np.array([-unit_circ[1], unit_circ[0]])
    return unit_circ, unit_axis


def cnt_cutting_line_energies(
    chirality: Chirality,
    line_index: int,
    k_axis_per_nm,
    gamma0_ev: float = GAMMA0_EV,
):
    """Exact conduction band [eV] along one quantised cutting line.

    The transverse wavevector is quantised as k_perp = 2 line_index / d
    (i.e. 2 pi q / |C|); ``k_axis_per_nm`` runs along the tube axis.
    """
    unit_circ, unit_axis = _tube_frame_vectors(chirality)
    circumference_nm = math.pi * chirality.diameter_nm
    k_perp = 2.0 * math.pi * line_index / circumference_nm
    k_axis = np.asarray(k_axis_per_nm, dtype=float)
    kx = k_perp * unit_circ[0] + k_axis * unit_axis[0]
    ky = k_perp * unit_circ[1] + k_axis * unit_axis[1]
    return graphene_energy_ev(kx, ky, gamma0_ev)


def translation_period_nm(chirality: Chirality) -> float:
    """Length of the tube's 1D translation vector T = sqrt(3) |C| / d_R [nm]."""
    n, m = chirality.n, chirality.m
    d_r = math.gcd(2 * n + m, 2 * m + n)
    circumference = math.pi * chirality.diameter_nm
    return math.sqrt(3.0) * circumference / d_r


def cutting_line_count(chirality: Chirality) -> int:
    """Number of distinct cutting lines N = 2 (n^2 + n m + m^2) / d_R."""
    n, m = chirality.n, chirality.m
    d_r = math.gcd(2 * n + m, 2 * m + n)
    return 2 * (n * n + n * m + m * m) // d_r


def exact_subband_edges_ev(
    chirality: Chirality,
    count: int = 4,
    gamma0_ev: float = GAMMA0_EV,
    n_k: int = 601,
) -> list[float]:
    """The ``count`` lowest subband edges from the exact folded dispersion.

    Reduced-zone folding: every one of the tube's N distinct cutting
    lines is scanned over one 1D Brillouin zone |k| <= pi / T, where T is
    the (chirality-dependent) translation period.  Restricting to one
    reduced zone is essential — over an extended window a straight line
    in the periodic graphene dispersion eventually grazes some K-point
    copy, which would collapse every minimum to the first gap.  Exact
    within nearest-neighbour theory, so trigonal warping is included.

    Each edge appears once per valley (twice for most tubes); callers
    should expect the K/K' duplication.  Only *achiral* tubes (zigzag
    and armchair) are supported: chiral tubes have translation periods
    of many nanometres, whose heavily folded bands make "sorted band
    minima" stop coinciding with van Hove edges.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not (chirality.m == 0 or chirality.n == chirality.m):  # zigzag or armchair
        raise ValueError(
            f"exact folding supports achiral tubes only, got ({chirality.n},"
            f"{chirality.m}); use Chirality.subband_edges_ev for chiral tubes"
        )
    k_zone = math.pi / translation_period_nm(chirality)
    k_axis = np.linspace(-k_zone, k_zone, n_k)
    minima: list[float] = []
    for q in range(cutting_line_count(chirality)):
        energies = cnt_cutting_line_energies(chirality, q, k_axis, gamma0_ev)
        minima.append(float(np.min(energies)))
    minima.sort()
    return minima[:count]
