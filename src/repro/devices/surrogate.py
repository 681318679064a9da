"""Spline surrogate compilation: freeze any FET model into a fast table.

The physical device models (ballistic CNT/GNR FETs, Schottky-contact
and series-resistance wrappers, the gated-diode tunnel FET) solve
k-space integrals per bias point — hundreds of microseconds per call,
~100x too slow inside a Newton loop.  This module compiles any
:class:`~repro.devices.base.FETModel` into a :class:`SurrogateFET`:

* the I-V surface is sampled **adaptively** over the model's declared
  :class:`~repro.devices.base.OperatingBox` (grid density doubles until
  the spline reproduces fresh midpoint samples to ``GridSpec.tolerance``,
  reusing every previously solved point);
* what is splined is the **reduced conductance** ``H = I / vds``
  (``H(vgs, 0)`` filled with the exact small-signal limit) through the
  **asinh transform** ``s = asinh(H / h_ref)`` with ``h_ref`` a tiny
  fraction of the peak conductance.  ``H`` never crosses zero, so the
  transform has no log singularity at ``vds = 0``, yet remains
  logarithmic over the subthreshold decades — one bicubic spline is
  therefore uniformly accurate in *relative* current from the on-state
  down through the exponential turn-off, and ``I = vds * H`` is exact
  at ``vds = 0`` by construction;
* the fitted spline is converted, once per table, into a **per-cell
  kernel**: ``(n_vgs - 1) * (n_vds - 1)`` bicubic polynomials of 16
  power-basis coefficients each, derived exactly from the spline's
  B-spline coefficients.  An evaluation is two ``searchsorted`` calls,
  one 16-coefficient gather and Horner's rule for ``s``, ``ds/dvgs``
  and ``ds/dvds`` together, so ``I``, ``gm`` and ``gds`` come from one
  analytic pass — no finite-difference step anywhere on the hot path.
  fitpack (:class:`~scipy.interpolate.RectBivariateSpline`) runs only at
  compile and load time: in the adaptive fill and in the conversion,
  which import :mod:`scipy.interpolate` themselves, so importing this
  module (and the CLI) does not load fitpack;
* outside the box the surface continues by bounded first-order
  extrapolation, keeping stray Newton iterates finite.

Tables are content-addressed: the cache key is
:func:`repro.store.fingerprint` of the pickled model state together
with the grid spec, the box and the symmetry flag, the same digest the
sweep checkpoints use.  Compiled tables live in an in-process memory
cache and — when the model pickles — on disk under
``~/.cache/repro-surrogates/`` (override with the
``REPRO_SURROGATE_CACHE`` environment variable; set it to ``off`` to
disable).  Each file stores its key and is rejected on load when the
key differs.  Disk writes are atomic
(:func:`repro.store.atomic_write_bytes`), so the process-pool workers
of :class:`repro.circuit.sweep.SweepPlan` can share one cache
directory; corrupt or stale files are silently recompiled and
replaced.  A model that does not pickle is memoised in memory by
identity and grid request only.

:class:`TabulatedFET` (the package's original bilinear grid device)
lives here too, sharing the grid validation through :class:`_TableFET`.
Built from a model (:meth:`TabulatedFET.from_model`) it solves no node
up front: each evaluation solves, in one batched ``currents`` call, the
unsolved corner nodes of the cells it reads, and reading
:attr:`TabulatedFET.table` solves the rest.
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.devices.base import (
    FETModel,
    OperatingBox,
    PType,
    mirror_symmetric_currents,
    mirror_symmetric_linearize,
)
from repro.store import atomic_write_bytes, fingerprint

__all__ = [
    "GridSpec",
    "SurrogateFET",
    "TabulatedFET",
    "compile_surrogate",
    "surrogate_cache_dir",
    "surrogate_fidelity",
    "clear_surrogate_memory",
    "CACHE_ENV",
]

#: Environment variable overriding the disk-cache directory ("off"/"0"
#: /"none" disables disk caching entirely).
CACHE_ENV = "REPRO_SURROGATE_CACHE"

#: On-disk format version; bumping it invalidates every cached table.
_CACHE_VERSION = 2

_CACHE_OFF_VALUES = frozenset({"", "0", "off", "none", "disabled"})


# ---------------------------------------------------------------------------
# Grid-table devices: shared validation, bilinear reference, spline surrogate.
# ---------------------------------------------------------------------------


class _TableFET(FETModel):
    """Shared machinery of grid-backed FETs: validated bias grids + table."""

    def __init__(self, vgs_grid, vds_grid, current_grid):
        self._vgs = np.asarray(vgs_grid, dtype=float)
        self._vds = np.asarray(vds_grid, dtype=float)
        self._id = np.asarray(current_grid, dtype=float)
        if self._vgs.ndim != 1 or self._vds.ndim != 1:
            raise ValueError("bias grids must be 1D")
        if self._id.shape != (self._vgs.size, self._vds.size):
            raise ValueError(
                f"current grid shape {self._id.shape} does not match "
                f"({self._vgs.size}, {self._vds.size})"
            )
        if np.any(np.diff(self._vgs) <= 0.0) or np.any(np.diff(self._vds) <= 0.0):
            raise ValueError("bias grids must be strictly increasing")
        self._require_finite(*np.indices(self._id.shape).reshape(2, -1))

    def _require_finite(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Reject the table if any of the nodes ``(rows, cols)`` is non-finite."""
        bad = np.flatnonzero(~np.isfinite(self._id[rows, cols]))
        if bad.size:
            i, j = rows[bad[0]], cols[bad[0]]
            raise ValueError(
                f"current grid contains non-finite values, first at node "
                f"[{i}, {j}] (vgs = {self._vgs[i]:g} V, vds = {self._vds[j]:g} V)"
            )

    @property
    def vgs_grid(self) -> np.ndarray:
        return self._vgs

    @property
    def vds_grid(self) -> np.ndarray:
        return self._vds

    @property
    def table(self) -> np.ndarray:
        """The raw tabulated currents, shape ``(n_vgs, n_vds)``."""
        return self._id

    @property
    def n_table_points(self) -> int:
        return int(self._id.size)

    def operating_box(self) -> OperatingBox:
        return OperatingBox(
            vgs_min=float(self._vgs[0]),
            vgs_max=float(self._vgs[-1]),
            vds_min=float(self._vds[0]),
            vds_max=float(self._vds[-1]),
        )


class TabulatedFET(_TableFET):
    """FET defined by bilinear interpolation of an I_D(V_GS, V_DS) grid.

    Out-of-range biases clamp to the table edge (flat extrapolation),
    which keeps Newton iterations bounded.  Negative ``vds`` uses the
    symmetric-device transformation, so only the vds >= 0 quadrant needs
    tabulating.  For analytic derivatives and adaptive sampling use
    :func:`compile_surrogate` / :class:`SurrogateFET` instead.

    A table built by :meth:`from_model` fills on demand: each
    evaluation solves, in one batched ``currents`` call of the model,
    the corner nodes of the queried cells that no earlier evaluation
    solved.  A node's value does not depend on the batch that solves
    it, so every read is bitwise what a full up-front fill gives.
    """

    #: The model a :meth:`from_model` table solves its nodes with (None
    #: for a table built from an explicit current grid), and which of
    #: its nodes are solved so far.
    _model: FETModel | None = None
    _filled: np.ndarray

    @classmethod
    def from_model(cls, model: FETModel, vgs_grid, vds_grid) -> "TabulatedFET":
        """Tabulate ``model`` on the given grid, solving nodes as they are read.

        Nothing is solved here; the bilinear reads of
        :meth:`_forward_currents` solve the corners of their cells, and
        :attr:`table` solves the rest.
        """
        vgs_grid = np.asarray(vgs_grid, dtype=float)
        vds_grid = np.asarray(vds_grid, dtype=float)
        table = cls(vgs_grid, vds_grid, np.zeros((vgs_grid.size, vds_grid.size)))
        table._model = model
        table._filled = np.zeros(table._id.shape, dtype=bool)
        return table

    @property
    def table(self) -> np.ndarray:
        """The tabulated currents, shape ``(n_vgs, n_vds)`` (completes the fill)."""
        self._solve_nodes(np.ones(self._id.shape, dtype=bool))
        return self._id

    def _solve_nodes(self, nodes: np.ndarray) -> None:
        """Solve the unfilled nodes of the boolean mask ``nodes`` in one batch."""
        model = self._model
        if model is None:
            return
        rows, cols = np.nonzero(nodes & ~self._filled)
        if rows.size == 0:
            return
        self._id[rows, cols] = model.currents(self._vgs[rows], self._vds[cols])
        self._require_finite(rows, cols)
        self._filled[rows, cols] = True

    def __reduce__(self):
        # A table pickles as its recipe: a lazy one as model and grids,
        # never its fill state, so its fingerprint does not change as it
        # fills (and an unpickled copy starts empty).
        if self._model is None:
            return type(self), (self._vgs, self._vds, self._id)
        return type(self).from_model, (self._model, self._vgs, self._vds)

    def _forward_currents(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Elementwise clamped bilinear interpolation on the vds >= 0 quadrant."""
        vgs_c = np.clip(vgs, self._vgs[0], self._vgs[-1])
        vds_c = np.clip(vds, self._vds[0], self._vds[-1])
        i = np.clip(np.searchsorted(self._vgs, vgs_c) - 1, 0, self._vgs.size - 2)
        j = np.clip(np.searchsorted(self._vds, vds_c) - 1, 0, self._vds.size - 2)
        if self._model is not None:
            corners = np.zeros(self._id.shape, dtype=bool)
            corners[i, j] = corners[i + 1, j] = True
            corners[i, j + 1] = corners[i + 1, j + 1] = True
            self._solve_nodes(corners)
        tx = (vgs_c - self._vgs[i]) / (self._vgs[i + 1] - self._vgs[i])
        ty = (vds_c - self._vds[j]) / (self._vds[j + 1] - self._vds[j])
        return (
            self._id[i, j] * (1 - tx) * (1 - ty)
            + self._id[i + 1, j] * tx * (1 - ty)
            + self._id[i, j + 1] * (1 - tx) * ty
            + self._id[i + 1, j + 1] * tx * ty
        )


#: vgs cell rows converted per block in :func:`_bicubic_cells`.
_CELL_BLOCK = 8


def _axis_cells(knots: np.ndarray, degree: int, nodes: np.ndarray):
    """One axis of a B-spline basis as per-cell Taylor rows.

    Returns ``(first, rows)``: on the cell ``[nodes[j], nodes[j + 1]]``
    the ``degree + 1`` basis functions from ``first[j]`` on are the
    nonzero ones, and ``rows[j, p, i]`` is the ``(x - nodes[j])**p``
    coefficient of the ``i``-th of them (``p > degree`` rows stay 0).
    Every node is a knot or lies inside a knot interval, so each cell
    is one polynomial piece; derivatives at a knot are taken from the
    right, i.e. from the piece the cell belongs to.
    """
    from scipy.interpolate import BSpline

    n_basis = knots.size - degree - 1
    cells = nodes[:-1]
    interval = np.searchsorted(knots, cells, side="right") - 1
    first = np.clip(interval, degree, n_basis - 1) - degree
    basis = BSpline(knots, np.eye(n_basis), degree)
    take = first[:, None] + np.arange(degree + 1)
    rows = np.zeros((cells.size, 4, degree + 1))
    for p in range(degree + 1):
        values = np.take_along_axis(basis(cells, nu=p), take, axis=1)
        rows[:, p] = values / math.factorial(p)
    return first, rows


def _bicubic_cells(vgs: np.ndarray, vds: np.ndarray, s_table: np.ndarray) -> np.ndarray:
    """Interpolating tensor spline of ``s_table`` as per-cell polynomials.

    ``cells[i, j, p, q]`` multiplies ``(vgs - vgs[i])**p *
    (vds - vds[j])**q`` on grid cell ``(i, j)``.  fitpack fits the
    spline (bicubic where both axes have >= 4 nodes); the conversion
    is exact algebra on its B-spline coefficients, one axis at a time
    (the vgs axis one cell row at a time), so no temporary reaches the
    size of the result.
    """
    from scipy.interpolate import RectBivariateSpline

    kx = min(3, vgs.size - 1)
    ky = min(3, vds.size - 1)
    spline = RectBivariateSpline(vgs, vds, s_table, kx=kx, ky=ky, s=0)
    knots_g, knots_d, coef = spline.tck
    coef = coef.reshape(knots_g.size - kx - 1, knots_d.size - ky - 1)
    first_g, rows_g = _axis_cells(knots_g, kx, vgs)
    first_d, rows_d = _axis_cells(knots_d, ky, vds)
    # The basis sums to 1 and its derivatives to 0, so each axis contracts
    # the differences from a window's first coefficient and adds that
    # coefficient back to the value term: the derivative terms then see
    # small differences, not large cancelling coefficients (the way
    # fitpack differentiates).  vds axis first: (vgs coefficient, vds
    # cell, q) rows.
    window = coef[:, first_d[:, None] + np.arange(ky + 1)]
    half = np.einsum("iql,qrl->iqr", window - window[..., :1], rows_d)
    half[..., 0] += window[..., 0]
    half = half.reshape(coef.shape[0], -1)
    # Then the vgs axis, a few cell rows at a time (cache-sized blocks).
    n_g, n_d = vgs.size - 1, vds.size - 1
    cells = np.empty((n_g, n_d, 4, 4))
    for lo in range(0, n_g, _CELL_BLOCK):
        hi = min(lo + _CELL_BLOCK, n_g)
        block = half[first_g[lo:hi, None] + np.arange(kx + 1)]
        taylor = rows_g[lo:hi] @ (block - block[:, :1])
        taylor[:, 0] += block[:, 0]
        cells[lo:hi] = taylor.reshape(hi - lo, 4, n_d, 4).transpose(0, 2, 1, 3)
    return cells


class SurrogateFET(_TableFET):
    """Bicubic-spline I-V surrogate with analytic small-signal derivatives.

    The stored table holds the reduced conductance ``H = I / vds``
    (``H(vgs, 0)`` is the exact ``dI/dvds`` limit), and the spline
    interpolates ``s = asinh(H / h_ref)`` — uniformly accurate in
    *relative* current across the subthreshold decades with no
    singularity at the ``vds = 0`` zero crossing.  The spline is held
    as per-cell power-basis coefficients (``_cells``), and ``gm``/``gds``
    are the exact derivatives of the reconstructed surface
    ``I = vds * h_ref * sinh(s)`` — the ``linearize`` entry points never
    take a finite-difference step.  Outside the tabulated box the
    surface continues with a first-order Taylor expansion from the
    clamped edge point, so stray Newton iterates see finite currents
    and conductances.

    Instances pickle by table (the cell coefficients are rebuilt on
    load), which keeps them safe to ship to
    :class:`~repro.circuit.sweep.SweepPlan` process-pool workers.
    """

    def __init__(
        self,
        vgs_grid,
        vds_grid,
        conductance_grid,
        *,
        h_ref: float,
        symmetric: bool = True,
        fit_error: float | None = None,
        source: FETModel | None = None,
    ):
        super().__init__(vgs_grid, vds_grid, conductance_grid)
        if h_ref <= 0.0:
            raise ValueError(f"h_ref must be positive, got {h_ref}")
        if symmetric and self._vds[0] != 0.0:
            raise ValueError("symmetric surrogates must tabulate from vds = 0")
        self._h_ref = float(h_ref)
        self.mirror_symmetric = bool(symmetric)
        self.fit_error = None if fit_error is None else float(fit_error)
        self.source = source
        self._build_cells()

    def _build_cells(self) -> None:
        self._cells = _bicubic_cells(
            self._vgs, self._vds, np.arcsinh(self._id / self._h_ref)
        )

    # -- pickling: ship the table, rebuild the cell coefficients -------------
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cells", None)
        state["source"] = None  # keep pool payloads small and picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_cells()

    @property
    def h_ref(self) -> float:
        """Scale conductance of the asinh transform [S]."""
        return self._h_ref

    # -- evaluation ---------------------------------------------------------
    def _cell_polynomial(self, vg: np.ndarray, vd: np.ndarray):
        """``(s, ds/dvgs, ds/dvds)`` at in-box points, in one kernel pass.

        Locate each point's cell, gather its 16 power-basis
        coefficients and Horner-evaluate the value and both partials
        together.
        """
        grid_g, grid_d = self._vgs, self._vds
        # Searching the interior nodes yields the cell index directly,
        # with the right edge folded into the last cell.
        i = np.searchsorted(grid_g[1:-1], vg, side="right")
        j = np.searchsorted(grid_d[1:-1], vd, side="right")
        u = vg - grid_g[i]
        v = (vd - grid_d[j])[..., None]
        c = self._cells[i, j]  # c[..., p, q] multiplies u**p * v**q
        a = ((c[..., 3] * v + c[..., 2]) * v + c[..., 1]) * v + c[..., 0]
        b = (3.0 * c[..., 3] * v + 2.0 * c[..., 2]) * v + c[..., 1]
        s = ((a[..., 3] * u + a[..., 2]) * u + a[..., 1]) * u + a[..., 0]
        s_g = (3.0 * a[..., 3] * u + 2.0 * a[..., 2]) * u + a[..., 1]
        s_d = ((b[..., 3] * u + b[..., 2]) * u + b[..., 1]) * u + b[..., 0]
        return s, s_g, s_d

    def _eval_forward(self, vgs: np.ndarray, vds: np.ndarray):
        """(I, dI/dvgs, dI/dvds) on the tabulated quadrant (clamp + Taylor)."""
        vg = np.clip(vgs, self._vgs[0], self._vgs[-1])
        vd = np.clip(vds, self._vds[0], self._vds[-1])
        s, s_g, s_d = self._cell_polynomial(vg, vd)
        h = self._h_ref * np.sinh(s)
        slope = self._h_ref * np.cosh(s)
        gm = vd * slope * s_g
        gds = h + vd * slope * s_d
        current = vd * h
        # First-order continuation outside the box: in-box points add
        # exact zeros, so the branch-free form stays bitwise clean.
        current = current + (vgs - vg) * gm + (vds - vd) * gds
        return current, gm, gds

    # repro-lint: ok[PRT001] -- polarity-aware spline evaluation: symmetric tables route through the shared mirror transform below, two-sided tables must not
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        if self.mirror_symmetric:
            return mirror_symmetric_currents(
                lambda a, b: self._eval_forward(a, b)[0], vgs_values, vds_values
            )
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        return self._eval_forward(vgs, vds)[0]

    def linearize(self, vgs_values, vds_values):
        """Analytic ``(id, gm, gds)`` from the kernel's derivatives.

        There is no finite-difference step.  Symmetric tables take
        mirrored points through :func:`mirror_symmetric_linearize`.
        """
        if self.mirror_symmetric:
            return mirror_symmetric_linearize(self._eval_forward, vgs_values, vds_values)
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        return self._eval_forward(vgs, vds)

    def linearize_point(self, vgs: float, vds: float):
        if self.mirror_symmetric:
            return mirror_symmetric_linearize(self._eval_point, float(vgs), float(vds))
        return self._eval_point(vgs, vds)

    def _eval_point(self, vgs: float, vds: float):
        """:meth:`_eval_forward` at one point, as floats (bitwise the same)."""
        current, gm, gds = self._eval_forward(
            np.asarray(vgs, dtype=float), np.asarray(vds, dtype=float)
        )
        return float(current), float(gm), float(gds)


# ---------------------------------------------------------------------------
# Grid specification and adaptive table fill.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """How to sample a model into a surrogate table.

    Attributes
    ----------
    box:
        Bias box to tabulate; ``None`` uses the model's declared
        :meth:`~repro.devices.base.FETModel.operating_box`.
    initial_points:
        ``(n_vgs, n_vds)`` of the coarsest grid (each >= 4 for the
        bicubic fit).
    tolerance:
        Refinement target: maximum ``asinh``-space mismatch between the
        spline and fresh midpoint samples.  Because the transform is
        logarithmic above ``h_ref``, this approximates the *relative*
        current error; 5e-5 leaves margin under the package acceptance
        bar of 1e-4.
    max_refinements:
        Density-doubling rounds after the initial grid.
    asinh_scale_rel:
        ``h_ref`` as a fraction of the largest tabulated reduced
        conductance — conductances below ``h_ref`` are treated as
        numerically off.
    """

    box: OperatingBox | None = None
    initial_points: tuple[int, int] = (25, 17)
    tolerance: float = 5e-5
    max_refinements: int = 3
    asinh_scale_rel: float = 1e-9

    def __post_init__(self) -> None:
        n_g, n_d = self.initial_points
        if n_g < 4 or n_d < 4:
            raise ValueError("initial grid needs >= 4 points per axis")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")
        if self.asinh_scale_rel <= 0.0:
            raise ValueError("asinh_scale_rel must be positive")


def _interleave(nodes: np.ndarray, midpoints: np.ndarray) -> np.ndarray:
    out = np.empty(nodes.size + midpoints.size)
    out[0::2] = nodes
    out[1::2] = midpoints
    return out


def _conductance_grid(
    model: FETModel, vgs: np.ndarray, vds: np.ndarray, eps_v: float
) -> np.ndarray:
    """Reduced conductance H = I/vds on the outer-product grid.

    Columns with ``|vds| <= eps_v`` (the vds = 0 node, in practice) are
    filled with the central-difference small-signal limit — a compile-
    time-only probe; the hot path stays finite-difference free.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    out = np.empty((vgs.size, vds.size))
    near_zero = np.abs(vds) <= eps_v
    if np.any(~near_zero):
        columns = np.asarray(model.grid_currents(vgs, vds[~near_zero]), dtype=float)
        out[:, ~near_zero] = columns / vds[~near_zero]
    for j in np.flatnonzero(near_zero):
        upper = np.asarray(model.currents(vgs, vds[j] + eps_v), dtype=float)
        lower = np.asarray(model.currents(vgs, vds[j] - eps_v), dtype=float)
        out[:, j] = (upper - lower) / (2.0 * eps_v)
    return out


def _fill_table(model: FETModel, spec: GridSpec, box: OperatingBox, symmetric: bool):
    """Adaptively sample ``model`` over ``box``; returns (vgs, vds,
    h_table, h_ref, fit_error).

    Each refinement doubles the grid density, reusing every already-
    solved point: only the midpoint cross-terms are evaluated fresh
    (through the model's batched ``grid_currents`` fill entry).  The
    error measure is the asinh-space mismatch at cell-center points the
    spline has never seen.
    """
    from scipy.interpolate import RectBivariateSpline

    n_g, n_d = spec.initial_points
    vds_lo = 0.0 if symmetric else box.vds_min
    eps_v = 1e-4 * (box.vds_max - vds_lo)
    vgs = np.linspace(box.vgs_min, box.vgs_max, n_g)
    vds = np.linspace(vds_lo, box.vds_max, n_d)
    table = _conductance_grid(model, vgs, vds, eps_v)
    if not np.all(np.isfinite(table)):
        raise ValueError("model produced non-finite currents over the box")
    h_scale = float(np.max(np.abs(table)))
    h_ref = spec.asinh_scale_rel * h_scale if h_scale > 0.0 else 1.0

    fit_error = np.inf
    for level in range(spec.max_refinements + 1):
        spline = RectBivariateSpline(
            vgs, vds, np.arcsinh(table / h_ref), kx=3, ky=3, s=0
        )
        mid_g = 0.5 * (vgs[:-1] + vgs[1:])
        mid_d = 0.5 * (vds[:-1] + vds[1:])
        direct_mid = _conductance_grid(model, mid_g, mid_d, eps_v)
        s_direct = np.arcsinh(direct_mid / h_ref)
        s_fit = spline(mid_g, mid_d)
        fit_error = float(np.max(np.abs(s_fit - s_direct)))
        if fit_error <= spec.tolerance or level == spec.max_refinements:
            break
        new_table = np.empty((2 * vgs.size - 1, 2 * vds.size - 1))
        new_table[0::2, 0::2] = table
        new_table[1::2, 1::2] = direct_mid
        new_table[0::2, 1::2] = _conductance_grid(model, vgs, mid_d, eps_v)
        new_table[1::2, 0::2] = _conductance_grid(model, mid_g, vds, eps_v)
        vgs = _interleave(vgs, mid_g)
        vds = _interleave(vds, mid_d)
        table = new_table
    return vgs, vds, table, h_ref, fit_error


# ---------------------------------------------------------------------------
# Content addressing: the cache key.
# ---------------------------------------------------------------------------


def _cache_key(
    model: FETModel, spec: GridSpec, box: OperatingBox, symmetric: bool
) -> str | None:
    """Fingerprint of a compile request, or None for an unpicklable model.

    The model's pickled state is its identity: every attribute it
    stores reaches the key (``SurrogateFET.__getstate__`` drops only
    the derived cells and the provenance ``source``).
    """
    try:
        return fingerprint(
            (
                "surrogate",
                _CACHE_VERSION,
                model,
                spec.initial_points,
                spec.tolerance,
                spec.max_refinements,
                spec.asinh_scale_rel,
                box,
                symmetric,
            )
        )
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


# ---------------------------------------------------------------------------
# Caches: in-process memory + content-addressed disk files.
# ---------------------------------------------------------------------------

_MEMORY_CACHE: dict[str, SurrogateFET] = {}
# Unpicklable models memoise by identity plus the fingerprint of the
# grid request.  The entry holds the surrogate *weakly*: while any
# caller keeps the surrogate alive, its ``source`` reference pins the
# model id against reuse; once the last reference drops, the entry dies
# instead of growing the cache forever.
_MEMORY_BY_ID: dict[tuple[int, str], weakref.ref] = {}


def clear_surrogate_memory() -> None:
    """Drop the in-process surrogate caches (disk files are untouched)."""
    _MEMORY_CACHE.clear()
    _MEMORY_BY_ID.clear()


def surrogate_cache_dir() -> Path | None:
    """Resolved disk-cache directory, or None when disabled via the env."""
    override = os.environ.get(CACHE_ENV)
    if override is not None:
        if override.strip().lower() in _CACHE_OFF_VALUES:
            return None
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-surrogates"


def _load_cached(path: Path, key: str) -> SurrogateFET | None:
    """Rebuild a surrogate from one cache file; None on any defect."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("version") != _CACHE_VERSION or meta.get("key") != key:
                return None
            return SurrogateFET(
                data["vgs"],
                data["vds"],
                data["table"],
                h_ref=float(meta["h_ref"]),
                symmetric=bool(meta["symmetric"]),
                fit_error=meta.get("fit_error"),
            )
    except Exception:
        # Corrupt, truncated, stale or unreadable: recompile and replace.
        return None


def _store_cached(path: Path, surrogate: SurrogateFET, key: str) -> None:
    """Atomically write one cache file (best effort; failures are ignored)."""
    meta = json.dumps(
        {
            "version": _CACHE_VERSION,
            "key": key,
            "h_ref": surrogate.h_ref,
            "symmetric": bool(surrogate.mirror_symmetric),
            "fit_error": surrogate.fit_error,
        }
    )
    buffer = io.BytesIO()
    try:
        np.savez(
            buffer,
            vgs=surrogate.vgs_grid,
            vds=surrogate.vds_grid,
            table=surrogate.table,
            meta=np.asarray(meta),
        )
        atomic_write_bytes(path, buffer.getvalue())
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The compiler.
# ---------------------------------------------------------------------------


def compile_surrogate(model: FETModel, spec: GridSpec | None = None) -> FETModel:
    """Compile ``model`` into a cached :class:`SurrogateFET`.

    The disk cache lives in :func:`surrogate_cache_dir` (set
    ``REPRO_SURROGATE_CACHE`` to pin it or turn it off).
    :class:`PType` mirrors compile their wrapped n-type model and
    re-wrap, so the stamp plan's polarity unwrapping sees the shared
    surrogate instance; an input that is already a surrogate is
    returned as-is.
    """
    if isinstance(model, SurrogateFET):
        return model
    if isinstance(model, PType):
        return PType(compile_surrogate(model.nfet, spec))
    spec = GridSpec() if spec is None else spec
    box = model.operating_box() if spec.box is None else spec.box
    symmetric = bool(getattr(model, "mirror_symmetric", True))

    key = _cache_key(model, spec, box, symmetric)
    path: Path | None = None
    if key is None:
        identity = (id(model), fingerprint((spec, box, symmetric)))
        reference = _MEMORY_BY_ID.get(identity)
        cached = None if reference is None else reference()
        if cached is not None and cached.source is model:
            return cached
    else:
        cached = _MEMORY_CACHE.get(key)
        if cached is not None:
            return cached
        directory = surrogate_cache_dir()
        path = None if directory is None else directory / f"{key}.npz"
        if path is not None and path.exists():
            loaded = _load_cached(path, key)
            if loaded is not None:
                loaded.source = model
                _MEMORY_CACHE[key] = loaded
                return loaded

    vgs, vds, table, h_ref, fit_error = _fill_table(model, spec, box, symmetric)
    surrogate = SurrogateFET(
        vgs,
        vds,
        table,
        h_ref=h_ref,
        symmetric=symmetric,
        fit_error=fit_error,
        source=model,
    )
    if key is None:
        for dead in [k for k, ref in _MEMORY_BY_ID.items() if ref() is None]:
            del _MEMORY_BY_ID[dead]
        _MEMORY_BY_ID[identity] = weakref.ref(surrogate)
    else:
        _MEMORY_CACHE[key] = surrogate
        if path is not None:
            _store_cached(path, surrogate, key)
    return surrogate


def surrogate_fidelity(
    surrogate: SurrogateFET,
    model: FETModel | None = None,
    n_probe: tuple[int, int] = (23, 16),
    rel_floor: float = 1e-6,
) -> float:
    """Max relative current error of ``surrogate`` vs direct evaluation.

    Probes an off-node grid inside the tabulated box (points the spline
    was never fitted to).  The error at each probe is normalised by
    ``max(|I_direct|, rel_floor * max|I_direct|)`` — relative accuracy
    down to ``rel_floor`` of the on-current, absolute below it.
    """
    model = surrogate.source if model is None else model
    if model is None:
        raise ValueError("surrogate has no source model; pass one explicitly")
    vgs = surrogate.vgs_grid
    vds = surrogate.vds_grid
    pad_g = 0.37 * (vgs[1] - vgs[0])
    pad_d = 0.37 * (vds[1] - vds[0])
    probe_g = np.linspace(vgs[0] + pad_g, vgs[-1] - pad_g, n_probe[0])
    probe_d = np.linspace(vds[0] + pad_d, vds[-1] - pad_d, n_probe[1])
    direct = np.asarray(model.grid_currents(probe_g, probe_d), dtype=float)
    approx = np.asarray(surrogate.grid_currents(probe_g, probe_d), dtype=float)
    scale = float(np.max(np.abs(direct)))
    if scale == 0.0:
        return float(np.max(np.abs(approx - direct)))
    denom = np.maximum(np.abs(direct), rel_floor * scale)
    return float(np.max(np.abs(approx - direct) / denom))
