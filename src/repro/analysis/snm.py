"""Static noise margin of cross-coupled inverters (butterfly analysis).

Extends the paper's Fig. 2 noise-margin argument from a single inverter
to the storage element that depends on it: two cross-coupled inverters
hold a bit only if the butterfly plot (the VTC ``y = f(x)`` overlaid
with its mirror ``x = f(y)``) encloses two lobes; the static noise
margin (Seevinck) is the side of the largest square inscribed in the
smaller lobe.  Non-saturating devices — whose single-inverter gain never
reaches one — produce a butterfly with a single crossing and zero SNM:
they cannot store state.

Implementation: a square of side ``s`` fits in the upper-left lobe iff
its top-right corner stays under curve A and its bottom-left corner
stays right of curve B,

    y0 + s <= f(x0 + s)   and   x0 >= f(y0)  (i.e. y0 >= f^-1(x0)),

because ``f`` is monotone decreasing, so the corners are the binding
points.  Maximising ``s`` over ``x0`` (with ``y0`` at its minimum
``f^-1(x0)``) gives the upper-lobe SNM; the lower lobe is the mirror
image.  Bistability is checked first via the crossings of
``f(f(x)) = x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ButterflyResult", "butterfly_snm"]


@dataclass(frozen=True)
class ButterflyResult:
    """Static noise margins of a cross-coupled inverter pair."""

    snm_low: float
    snm_high: float
    is_bistable: bool

    @property
    def snm(self) -> float:
        """Worst-case static noise margin [V]."""
        return min(self.snm_low, self.snm_high)


def butterfly_snm(v_in, v_out, n_grid: int = 801) -> ButterflyResult:
    """SNM of a latch built from two inverters with the given VTC.

    ``v_in``/``v_out`` sample one inverter's transfer curve (input
    strictly increasing, output monotone non-increasing).
    """
    x = np.asarray(v_in, dtype=float)
    y = np.asarray(v_out, dtype=float)
    if x.size != y.size or x.size < 5:
        raise ValueError("need matching v_in/v_out arrays with >= 5 points")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("v_in must be strictly increasing")

    # Force strict monotone decrease so f and f^-1 are interpolatable.
    y_mono = np.minimum.accumulate(y)
    jitter = 1e-12 * np.arange(y_mono.size)
    y_mono = y_mono - jitter

    def f(values):
        return np.interp(values, x, y_mono)

    def f_inverse(values):
        return np.interp(values, y_mono[::-1], x[::-1])

    if not _is_bistable(x, f):
        return ButterflyResult(snm_low=0.0, snm_high=0.0, is_bistable=False)

    snm_high = _lobe_snm(x, f, f_inverse, n_grid)
    # Lower lobe: mirror the system through the diagonal — equivalent to
    # analysing the inverse curve g = f^-1 (swap the axes' roles).
    x_lo = np.sort(y_mono)
    snm_low = _lobe_snm(x_lo, f_inverse, f, n_grid)
    is_bistable = snm_low > 1e-6 and snm_high > 1e-6
    if not is_bistable:
        return ButterflyResult(snm_low=0.0, snm_high=0.0, is_bistable=False)
    return ButterflyResult(snm_low=snm_low, snm_high=snm_high, is_bistable=True)


def _is_bistable(x: np.ndarray, f) -> bool:
    """Loop gain above one at the metastable point f(x_m) = x_m.

    For a monotone VTC the latch is bistable exactly when the two-
    inverter loop gain |f'(x_m)|^2 exceeds 1, i.e. |f'(x_m)| > 1.
    """
    diff = f(x) - x
    signs = np.sign(diff)
    crossing = np.nonzero(np.diff(signs) != 0)[0]
    if crossing.size == 0:
        return False
    i = int(crossing[0])
    t = diff[i] / (diff[i] - diff[i + 1])
    x_m = float(x[i] + t * (x[i + 1] - x[i]))
    h = max(1e-4 * (x[-1] - x[0]), 1e-9)
    slope = (f(x_m + h) - f(x_m - h)) / (2.0 * h)
    return abs(slope) > 1.0


def _lobe_snm(x: np.ndarray, f, f_inverse, n_grid: int) -> float:
    """Largest inscribed square in one lobe (see module docstring).

    The side is the largest ``s_grid[j]`` for which some ``x0`` on the
    grid has ``headroom(x0, s) = f(x0 + s) - s - y0_min(x0) >= 0``.
    ``f`` is monotone decreasing, so headroom falls as ``s`` grows: a
    square that fits still fits when made smaller, and bisection over
    ``j`` finds that side from ~log2(n_grid) columns of ``n_grid``
    points, each computed as the full grid would compute it.
    """
    span = float(x[-1] - x[0])
    if span <= 0.0:
        return 0.0
    x0_grid = np.linspace(x[0], x[-1], n_grid)
    s_grid = np.linspace(0.0, span, n_grid)
    y0_min = f_inverse(x0_grid)  # smallest y0 right of curve B

    def fits(j: int) -> bool:
        side = s_grid[j]
        return bool(np.any(f(x0_grid + side) - side - y0_min >= 0.0))

    if not fits(0):
        return 0.0
    # Invariant: column ``lo`` fits and every column from ``hi`` on does not.
    lo, hi = 0, n_grid
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return float(s_grid[lo])
