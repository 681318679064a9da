"""Self-consistent ballistic top-of-barrier FET model.

Implements the Rahman-Guo-Datta-Lundstrom "theory of ballistic
nanotransistors" (IEEE TED 50, 1853 (2003)) for 1D carbon channels — the
same modelling level behind the FETToy-class simulators used by Ouyang et
al. (the source of the paper's Fig. 1) and behind the Stanford CNT-FET
compact models.

Model summary
-------------
The channel is represented by its single most-restrictive point (the top
of the source-drain barrier) with a rigid potential energy shift ``U``
applied to all subbands:

    U = U_L + U_C
    U_L = -q (alpha_G V_G + alpha_D V_D)                (Laplace part)
    U_C = (q^2 / C_sigma) * (N(U) - N0)                  (charging part)

where ``N(U)`` is the carrier density at the barrier top: +k states are
populated from the source reservoir and -k states from the drain,

    N = sum_j g_j/(2 pi) * [ int_0^inf f(E_j(k)+U - mu_S) dk
                           + int_0^inf f(E_j(k)+U - mu_D) dk ].

The solved ``U`` yields the Landauer current in closed form (F0
integrals).  Charge is integrated in k-space, which removes the van Hove
singularity of the 1D DOS from the numerics.  Per-unit-length
capacitances and densities are used throughout, so the charging energy is
independent of an (arbitrary) barrier length.

Quadrature
----------
Each subband's k grid runs from 0 to the wavevector 30 kT above the
higher Fermi level, sampled at ``_K_SAMPLES`` = 256 points.  The
trapezoid rule converges geometrically on it: the occupation is an even,
analytic function of k, so the endpoint corrections vanish at k = 0 and
are e^-30 small at the far end.  256 samples match a 9600-sample
reference to ~1e-14 relative (CNT gaps 0.35-1.0 eV, GNRs, 77-400 K);
128 samples do not (a few 1e-10 at 77 K).

"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.physics.bands import BandStructure1D
from repro.physics.constants import KB_EV, Q, ROOM_TEMPERATURE_K
from repro.transport.landauer import subband_ballistic_current

__all__ = ["BallisticParameters", "TopOfBarrierSolver"]

_K_SAMPLES = 256
_MAX_NEWTON_ITERATIONS = 200
# Bias points per vectorised solve slab: bounds the (points x k-samples)
# work arrays to a few MB while keeping numpy dispatch overhead amortised.
_BATCH_CHUNK = 256


@dataclass(frozen=True)
class BallisticParameters:
    """Electrostatic and thermal parameters of a top-of-barrier FET.

    Attributes
    ----------
    c_ins_f_per_m:
        Gate-insulator capacitance per unit channel length [F/m]
        (e.g. from :func:`repro.physics.electrostatics.gate_all_around_capacitance`).
    alpha_g:
        Gate control of the barrier, d(-U)/d(qV_G) in [0, 1].  1 means
        perfect gate control; realistic GAA devices reach ~0.85-0.95.
    alpha_d:
        Drain coupling to the barrier (DIBL-like), typically 0.02-0.1.
    ef_offset_ev:
        Position of the equilibrium source Fermi level relative to the
        first subband edge, mu_S - E_c1 [eV].  Negative values mean a
        barrier at zero gate bias (enhancement-mode device).
    temperature_k:
        Lattice/reservoir temperature [K].
    transmission:
        Energy-independent channel transmission in (0, 1]; use
        :func:`repro.transport.scattering.ballisticity` for a finite
        channel length.
    """

    c_ins_f_per_m: float
    alpha_g: float = 0.88
    alpha_d: float = 0.035
    ef_offset_ev: float = -0.32
    temperature_k: float = ROOM_TEMPERATURE_K
    transmission: float = 1.0

    def __post_init__(self) -> None:
        if self.c_ins_f_per_m <= 0.0:
            raise ValueError(f"c_ins must be positive, got {self.c_ins_f_per_m}")
        if not 0.0 < self.alpha_g <= 1.0:
            raise ValueError(f"alpha_g must be in (0, 1], got {self.alpha_g}")
        if not 0.0 <= self.alpha_d < 1.0:
            raise ValueError(f"alpha_d must be in [0, 1), got {self.alpha_d}")
        if self.temperature_k <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature_k}")
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError(f"transmission must be in (0, 1], got {self.transmission}")


class TopOfBarrierSolver:
    """Self-consistent ballistic FET solver for a 1D band structure.

    The solver is stateless across bias points; it is safe to reuse one
    instance for full I-V surfaces.
    """

    def __init__(self, bands: BandStructure1D, params: BallisticParameters):
        self.bands = bands
        self.params = params
        # Subband edges relative to the equilibrium source Fermi level
        # (mu_S = 0): the first edge sits at -ef_offset above mu_S.
        first_edge = bands.subbands[0].edge_ev
        self._edges_ev = [
            band.edge_ev - first_edge - params.ef_offset_ev for band in bands.subbands
        ]
        self._kt = KB_EV * params.temperature_k
        # Each point's k grid is the unit grid scaled by its own k_max.
        self._unit_grid_squared = np.linspace(0.0, 1.0, _K_SAMPLES) ** 2
        zero = np.zeros(1)
        self._n0 = float(self._density_batch(zero, zero)[0][0])

    # -- public API --------------------------------------------------------
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        """Batched elementwise drain currents [A] (arrays must broadcast).

        Runs the damped barrier Newton on whole slabs of bias points at
        once: every k-space integral covers all still-unconverged points
        of a slab, and points drop out of the active set as their
        residual passes the tolerance.  A point's iterates do not depend
        on the rest of its slab — this is the entry the vectorised device
        models (and through them the compiled circuit assembly and curve
        tabulation) call.
        """
        currents, _ = self.solve_currents(vgs_values, vds_values)
        return currents

    def solve_currents(self, vgs_values, vds_values, barrier_guess=None):
        """Batched solve returning ``(currents, barriers)`` (broadcast shape).

        The exposed form of the chunked barrier Newton: callers that
        sweep smoothly varying bias families (the surrogate table fill)
        can feed one solve's barriers back as ``barrier_guess`` for the
        next, cutting the iteration count roughly in half.  With no
        guess the iterates are identical to :meth:`currents`.
        """
        vgs = np.asarray(vgs_values, dtype=float)
        vds = np.asarray(vds_values, dtype=float)
        if vgs.shape != vds.shape:
            vgs, vds = np.broadcast_arrays(vgs, vds)
        flat_vgs, flat_vds = vgs.ravel(), vds.ravel()
        flat_guess = None
        if barrier_guess is not None:
            flat_guess = np.broadcast_to(np.asarray(barrier_guess, dtype=float), vgs.shape).ravel()
        out = np.empty(flat_vgs.size)
        barriers = np.empty(flat_vgs.size)
        for start in range(0, flat_vgs.size, _BATCH_CHUNK):
            chunk = slice(start, start + _BATCH_CHUNK)
            guess = None if flat_guess is None else flat_guess[chunk]
            out[chunk], barriers[chunk], _ = self._solve_chunk(
                flat_vgs[chunk], flat_vds[chunk], guess
            )
        return out.reshape(vgs.shape), barriers.reshape(vgs.shape)

    def grid_currents(self, vgs_values, vds_values) -> np.ndarray:
        """Warm-started table fill on the outer grid (len(vgs), len(vds)).

        Solves one ``vds`` column at a time, seeding each column's
        barrier Newton with the previous column's converged barriers —
        the barrier moves smoothly with drain bias, so later columns
        converge in a fraction of the cold-start iterations.  This is
        the batched fill entry the surrogate compiler consumes through
        :meth:`repro.devices.base.FETModel.grid_currents`.
        """
        vgs = np.asarray(vgs_values, dtype=float)
        vds = np.asarray(vds_values, dtype=float)
        out = np.empty((vgs.size, vds.size))
        barriers = None
        for j in range(vds.size):
            out[:, j], barriers = self.solve_currents(
                vgs, np.full(vgs.size, vds[j]), barrier_guess=barriers
            )
        return out

    # -- the solver kernel (one array axis = bias points) -----------------------
    def _solve_chunk(
        self, vgs: np.ndarray, vds: np.ndarray, barrier_guess: np.ndarray | None = None
    ):
        """(currents, barriers, iterations) of one slab of bias points.

        Damped Newton on the barrier residual, elementwise: the initial
        guess is the Laplace barrier (no charging feedback) unless a
        warm-start ``barrier_guess`` is given, steps are clipped to
        10 kT (the charge integral is exponential in U), and a point
        leaves the active set once its residual is below 1e-9 eV.
        ``iterations`` counts the density evaluations each point took.
        """
        params = self.params
        mu_d = -vds
        u_laplace = -(params.alpha_g * vgs + params.alpha_d * vds)
        charging_ev_m = Q / params.c_ins_f_per_m  # [eV per (1/m) of density]
        max_step = 10.0 * self._kt

        barrier = u_laplace.copy() if barrier_guess is None else barrier_guess.copy()
        iterations = np.full(vgs.size, _MAX_NEWTON_ITERATIONS)
        active = np.arange(vgs.size)
        for sweep in range(1, _MAX_NEWTON_ITERATIONS + 1):
            density, cache = self._density_batch(barrier[active], mu_d[active])
            residual = (
                barrier[active]
                - u_laplace[active]
                - charging_ev_m * (density - self._n0)
            )
            keep = np.abs(residual) >= 1e-9
            iterations[active[~keep]] = sweep
            if not keep.any():
                break
            active = active[keep]
            ddensity = self._density_derivative_batch(cache, keep, density[keep])
            slope = 1.0 - charging_ev_m * ddensity  # ddensity < 0 -> slope > 1
            step = np.clip(-residual[keep] / slope, -max_step, max_step)
            barrier[active] += step
        return self._current_batch(barrier, mu_d), barrier, iterations

    def _density_batch(self, barrier_ev: np.ndarray, mu_d: np.ndarray):
        """Densities of a point slab, plus the occupancies dN/dU reuses."""
        kt = self._kt
        total = np.zeros(barrier_ev.size)
        mu_max = np.maximum(0.0, mu_d)
        mu_d_reduced = (mu_d / kt)[:, None]
        intervals = self._unit_grid_squared.size - 1
        cache = []
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            edge_abs = edge + barrier_ev
            # k runs to k(E_top), 30 kT above the higher Fermi level.
            e_top = band.edge_ev + np.maximum(mu_max - edge_abs, 0.0) + 30.0 * kt
            x = band.energy_kt_on_grids(e_top, self._unit_grid_squared, kt)
            x += ((edge_abs - band.edge_ev) / kt)[:, None]  # x = (E - mu_S) / kT
            occ_d = _fermi_in_place(x - mu_d_reduced)
            occ_s = _fermi_in_place(x)
            weight = band.degeneracy / (2.0 * math.pi)
            dk = band.wavevector_per_m(e_top) / intervals
            total += weight * (_trapz_uniform(occ_s, dk) + _trapz_uniform(occ_d, dk))
            cache.append((weight, occ_s, occ_d, dk))
        return total, cache

    def _density_derivative_batch(
        self, cache: list, keep: np.ndarray, density: np.ndarray
    ) -> np.ndarray:
        """dN/dU [1/(m eV)] < 0 of the kept points, whose densities are
        ``density``: df/dE = -f (1 - f) / kT gives -(N - sum w int f^2) / kT."""
        spread = density.copy()  # becomes sum w int f (1 - f)
        every = bool(keep.all())
        for weight, occ_s, occ_d, dk in cache:
            if not every:
                occ_s, occ_d, dk = occ_s[keep], occ_d[keep], dk[keep]
            spread -= weight * (_trapz_squares(occ_s, dk) + _trapz_squares(occ_d, dk))
        return -spread / self._kt

    def _current_batch(self, barrier_ev: np.ndarray, mu_d: np.ndarray) -> np.ndarray:
        total = np.zeros(barrier_ev.size)
        for band, edge in zip(self.bands.subbands, self._edges_ev):
            total += subband_ballistic_current(
                edge_ev=edge + barrier_ev,
                degeneracy=band.degeneracy,
                mu_source_ev=0.0,
                mu_drain_ev=mu_d,
                temperature_k=self.params.temperature_k,
                transmission=self.params.transmission,
            )
        return total


def _fermi_in_place(x: np.ndarray) -> np.ndarray:
    """Fermi occupancy 1 / (1 + e^x), computed in place over ``x``."""
    np.minimum(x, 500.0, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def _trapz_uniform(y: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """Trapezoid integral along the last axis on a uniform grid of step dk."""
    interior = y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1])
    return interior * dk


def _trapz_squares(y: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y**2 along the last axis (no temporaries)."""
    interior = np.einsum("ij,ij->i", y, y) - 0.5 * (y[:, 0] ** 2 + y[:, -1] ** 2)
    return interior * dk
