"""The per-subband top-of-barrier charge kernel, kept as a test reference.

:class:`LoopTopOfBarrierSolver` is the production barrier Newton with the
charge kernel it used to run: a Python loop over the subbands, each one
integrated on a fixed 256-sample unit k grid, and the Landauer current
summed one subband at a time.  The production kernel integrates every
subband in one ``(points, subbands, k)`` block on a grid sized by the
temperature; the tests and the transport bench hold it to this loop.
Only tests and benchmarks import this module.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from band_oracle import energy_kt_on_grids, wavevector_per_m
from repro.transport.ballistic import TopOfBarrierSolver
from repro.transport.landauer import subband_ballistic_current

K_SAMPLES = 256
_UNIT_GRID_SQUARED = np.linspace(0.0, 1.0, K_SAMPLES) ** 2


class LoopTopOfBarrierSolver(TopOfBarrierSolver):
    """:class:`TopOfBarrierSolver` on the per-subband, 256-sample kernel."""

    def _density_batch(self, barrier_ev, mu_d):
        kt = self._kt
        total = np.zeros(barrier_ev.size)
        mu_max = np.maximum(0.0, mu_d)
        mu_d_reduced = (mu_d / kt)[:, None]
        intervals = K_SAMPLES - 1
        first_edge = self.bands.subbands[0].edge_ev
        cache = []
        for band in self.bands.subbands:
            edge_abs = band.edge_ev - first_edge - self.params.ef_offset_ev + barrier_ev
            # k runs to k(E_top), 30 kT above the higher Fermi level.
            e_top = band.edge_ev + np.maximum(mu_max - edge_abs, 0.0) + 30.0 * kt
            x = energy_kt_on_grids(band, e_top, _UNIT_GRID_SQUARED, kt)
            x += ((edge_abs - band.edge_ev) / kt)[:, None]  # x = (E - mu_S) / kT
            occ_d = _fermi(x - mu_d_reduced)
            occ_s = _fermi(x)
            weight = band.degeneracy / (2.0 * math.pi)
            dk = wavevector_per_m(band, e_top) / intervals
            total += weight * (_trapz(occ_s, dk) + _trapz(occ_d, dk))
            cache.append((weight, occ_s, occ_d, dk))
        return total, cache

    def _density_derivative_batch(self, cache, keep, density):
        spread = density.copy()  # becomes sum w int f (1 - f)
        for weight, occ_s, occ_d, dk in cache:
            occ_s, occ_d, dk = occ_s[keep], occ_d[keep], dk[keep]
            spread -= weight * (_trapz(occ_s**2, dk) + _trapz(occ_d**2, dk))
        return -spread / self._kt

    def _current_batch(self, barrier_ev, mu_d):
        total = np.zeros(barrier_ev.size)
        first_edge = self.bands.subbands[0].edge_ev
        for band in self.bands.subbands:
            total += subband_ballistic_current(
                edge_ev=band.edge_ev - first_edge - self.params.ef_offset_ev + barrier_ev,
                degeneracy=band.degeneracy,
                mu_source_ev=0.0,
                mu_drain_ev=mu_d,
                temperature_k=self.params.temperature_k,
                transmission=self.params.transmission,
            )
        return total


def with_loop_kernel(device):
    """A shallow copy of ``device`` whose barrier solves run the loop kernel.

    ``device`` is a CNT/GNR FET or a series-resistance FET around one.
    """
    twin = copy.copy(device)
    if hasattr(twin, "inner"):
        twin.inner = with_loop_kernel(twin.inner)
    else:
        twin._solver = LoopTopOfBarrierSolver(twin.bands, twin.params)
    return twin


def _fermi(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(np.minimum(x, 500.0)))


def _trapz(y: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """Trapezoid integral along the last axis on a uniform grid of step dk."""
    return (y.sum(axis=-1) - 0.5 * (y[:, 0] + y[:, -1])) * dk
