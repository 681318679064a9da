"""Compiled stamp-plan assembly engine for MNA systems.

The reference evaluator (:meth:`repro.circuit.netlist.MNASystem.evaluate_dense`)
walks every element per Newton iteration and stamps scalars through
:class:`~repro.circuit.elements.StampContext` — simple, but all-Python
and re-allocating a dense ``n x n`` Jacobian on every call.  This module
compiles a :class:`StampPlan` once per :meth:`Circuit.build_system`:

* **Linear elements** (R, V-source patterns, capacitor companion
  conductances) collapse into one constant matrix ``A`` assembled a
  single time and cached per ``(dt, integrator)`` key, so the linear
  residual is a matrix-vector product ``A @ x`` and the linear Jacobian
  block is a buffer copy.
* **Right-hand-side terms** (source waveform levels, capacitor history)
  are gathered through precomputed index arrays each call.
* **Nonlinear FETs** are grouped by device-model instance and
  linearized in one batched :meth:`repro.devices.base.FETModel.linearize`
  call per group (arrays of ``vgs``/``vds`` in, arrays of
  ``(id, gm, gds)`` out), then scattered into the residual/Jacobian with
  ``np.add.at`` through index arrays laid out at compile time.
* Systems with ``size >= SPARSE_THRESHOLD`` assemble ``scipy.sparse``
  CSR matrices through a :class:`_SparseSchedule`: one canonical
  sparsity pattern (linear stamps ∪ FET stamps ∪ full diagonal) shared
  by every evaluation, with precomputed scatter positions so a
  Jacobian is just a ``data`` vector.  The schedule computes the
  fill-reducing column ordering **once** (symbolic analysis) and every
  Newton step refactorizes only numerically against it — this is also
  what lets the sweep engines stack N instances' CSR ``data`` arrays
  as ``(m, nnz)`` and batch sparse Monte Carlo.  Smaller systems — all
  the seed circuits — reuse preallocated dense buffers.

Two kernels evaluate a plan: :meth:`StampPlan.evaluate` at one iterate
(with a scalar per-FET path for small groups), and
:meth:`StampPlan.evaluate_many` — the one batched kernel — at a stack
of iterates, optionally with per-row device variation and companion
state.  The one Newton loop (:func:`repro.circuit.solver.newton_many`)
evaluates only through :meth:`StampPlan.evaluate_many`, which hands a
one-row stack without variation to :meth:`StampPlan.evaluate`.

The compiled path is numerically equivalent to the reference path (same
stamps, same finite-difference linearization arithmetic); the test suite
asserts residual/Jacobian agreement to 1e-12 on representative circuits.

Buffer-reuse contract: in dense mode :meth:`StampPlan.evaluate` returns
views of preallocated buffers that are overwritten by the next call —
copy them if you need to keep results across evaluations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.devices.base import PType

if TYPE_CHECKING:  # pragma: no cover - sweep imports this module
    from repro.circuit.sweep import FETVariation

__all__ = ["StampPlan", "UnsupportedElement", "SPARSE_THRESHOLD"]

# Unknown-count at which assembly (and the Newton solve) switch from
# preallocated dense buffers to scipy.sparse CSR matrices.
SPARSE_THRESHOLD = 128

# Diagonal regularization applied before any factorization — shared
# with the Newton solver (which imports it), so linear-only cached-LU
# solves and per-iteration nonlinear solves get identical conditioning.
DIAG_REGULARIZATION = 1e-14

# FET groups at or below this size stamp through the scalar
# ``linearize_point`` path in dense mode: array dispatch does not
# amortise below ~4 FETs (the seed's small-circuit advantage; a
# 2-stage complementary chain is one group of 4).  Devices whose
# scalar ``current`` is itself a solver call opt out via
# ``FETModel.prefer_batched_points``.
SCALAR_GROUP_MAX = 4

_COMPILED_TYPES = (Resistor, Capacitor, VoltageSource, CurrentSource, FET)


class UnsupportedElement(TypeError):
    """Raised at ``build_system()`` for an element type the plan cannot compile."""


def _unwrap_polarity(device) -> tuple[object, float]:
    """Strip :class:`PType` mirror wrappers into (base model, sign).

    I_p(v) = -I_n(-v) means a p-FET's bias points can ride in the same
    batched ``linearize`` call as its n-type siblings: flip the biases
    on the way in and the current on the way out (conductances are
    even under the mirror), so one complementary pair costs one device
    call instead of two.
    """
    sign = 1.0
    while type(device) is PType:
        sign = -sign
        device = device.nfet
    return device, sign


class _FETGroup:
    """All FETs sharing one (polarity-unwrapped) device-model instance.

    ``gather_*`` index the padded voltage vector (ground at index
    ``size``); ``rows``/``cols``/``take`` address the 6-entry-per-FET
    Jacobian stamp pattern with ground rows/columns masked out.

    Groups of at most :data:`SCALAR_GROUP_MAX` FETs additionally
    precompute plain-int indices for :meth:`stamp_points` — a
    pure-scalar stamp through
    :meth:`repro.devices.base.FETModel.linearize_point` that skips the
    array dispatch entirely (array math does not amortise below ~4
    FETs; see the ROADMAP's small-circuit trade-off note).  Devices
    that set ``prefer_batched_points`` (scalar evaluation is a solver
    call) keep the batched path at every group size.
    """

    __slots__ = (
        "device", "delta_v", "count", "sign",
        "gather_dgs", "scatter_idx", "flat",
        "rows", "cols", "take", "_vals6", "_vals", "_scatter_vals",
        "use_points", "point_fets", "columns",
    )

    def __init__(
        self, device, delta_v: float | None, fets: list, columns: list[int],
        pad, jac_idx, size: int,
    ):
        self.device = device
        self.delta_v = delta_v
        self.count = len(fets)
        # Each slot's column in a FETVariation (the circuit's FET order).
        self.columns = np.array(columns, dtype=np.intp)
        signs = np.array([_unwrap_polarity(f.device)[1] for f in fets])
        self.sign = None if np.all(signs == 1.0) else signs
        gather_d = np.array([pad(f.drain) for f in fets], dtype=np.intp)
        gather_g = np.array([pad(f.gate) for f in fets], dtype=np.intp)
        gather_s = np.array([pad(f.source) for f in fets], dtype=np.intp)
        self.gather_dgs = np.stack((gather_d, gather_g, gather_s))
        self.scatter_idx = np.concatenate((gather_d, gather_s))
        jd = np.array([jac_idx(f.drain) for f in fets], dtype=np.intp)
        jg = np.array([jac_idx(f.gate) for f in fets], dtype=np.intp)
        js = np.array([jac_idx(f.source) for f in fets], dtype=np.intp)
        # Entry order matches the per-call value stack in evaluate():
        # (d,d)=gds (d,g)=gm (d,s)=-(gm+gds) (s,d)=-gds (s,g)=-gm (s,s)=gm+gds
        rows6 = np.stack((jd, jd, jd, js, js, js))
        cols6 = np.stack((jd, jg, js, jd, jg, js))
        valid = ((rows6 >= 0) & (cols6 >= 0)).ravel()
        self.take = np.nonzero(valid)[0]
        self.rows = rows6.ravel()[self.take]
        self.cols = cols6.ravel()[self.take]
        self.flat = self.rows * size + self.cols
        self._vals6 = np.empty((6, self.count))
        self._vals = np.empty(self.take.size)
        self._scatter_vals = np.empty(2 * self.count)
        self.use_points = self.count <= SCALAR_GROUP_MAX and not getattr(
            device, "prefer_batched_points", False
        )
        if self.use_points:
            # Per-FET scalar stamp schedule: padded terminal indices,
            # polarity sign, and this FET's surviving Jacobian entries
            # as (flat index, slot in the 6-value pattern) pairs.
            flat_by_pos = dict(zip(self.take.tolist(), self.flat.tolist()))
            self.point_fets = [
                (
                    int(gather_d[i]),
                    int(gather_g[i]),
                    int(gather_s[i]),
                    float(signs[i]),
                    [
                        (flat_by_pos[slot * self.count + i], slot)
                        for slot in range(6)
                        if slot * self.count + i in flat_by_pos
                    ],
                )
                for i in range(self.count)
            ]

    def linearize(self, xpad: np.ndarray):
        """Batched device linearization at the padded iterate ``xpad``."""
        v_dgs = xpad[self.gather_dgs]
        vs = v_dgs[2]
        vgs = v_dgs[1] - vs
        vds = v_dgs[0] - vs
        if self.sign is None:
            return self.device.linearize(vgs, vds, self.delta_v)
        current, gm, gds = self.device.linearize(
            self.sign * vgs, self.sign * vds, self.delta_v
        )
        return self.sign * current, gm, gds

    def stamp_points(self, xpad: np.ndarray, rpad: np.ndarray, jac_flat: np.ndarray):
        """Scalar fast path: stamp a small group FET by FET, no arrays.

        Same arithmetic as the batched path (sign-flip in, sign-flip
        out, unsigned conductances) through the device's scalar
        ``linearize_point``, with plain-int indexed accumulation — the
        restoration of the seed's per-element stamp cost for small
        circuits.
        """
        device = self.device
        delta_v = self.delta_v
        for d, g, s, sign, entries in self.point_fets:
            vs = xpad[s]
            vgs = xpad[g] - vs
            vds = xpad[d] - vs
            if sign == 1.0:
                current, gm, gds = device.linearize_point(vgs, vds, delta_v)
            else:
                current, gm, gds = device.linearize_point(
                    sign * vgs, sign * vds, delta_v
                )
                current = sign * current
            rpad[d] += current
            rpad[s] -= current
            vals = (gds, gm, -(gm + gds), -gds, -gm, gm + gds)
            for flat_index, slot in entries:
                jac_flat[flat_index] += vals[slot]

    def residual_values(self, current: np.ndarray) -> np.ndarray:
        """Stack ``[+I, -I]`` matching ``scatter_idx`` (drains then sources)."""
        vals = self._scatter_vals
        vals[: self.count] = current
        np.negative(current, out=vals[self.count :])
        return vals

    def jacobian_values(self, gm: np.ndarray, gds: np.ndarray) -> np.ndarray:
        vals6 = self._vals6
        vals6[0] = gds
        vals6[1] = gm
        np.add(gm, gds, out=vals6[5])
        np.negative(vals6[5], out=vals6[2])
        np.negative(gds, out=vals6[3])
        np.negative(gm, out=vals6[4])
        return np.take(vals6.ravel(), self.take, out=self._vals)


class _LinearSystem:
    """Cached constant linear part for one ``(dt, integrator)`` key.

    ``solve`` holds a lazily-built LU-backed ``solve(rhs)`` callable for
    linear-only circuits, so transient steps and sweep points reuse one
    factorization instead of refactorizing the identical matrix.
    ``sparse_base`` caches this linear part scattered onto the plan's
    canonical sparse pattern (see :class:`_SparseSchedule`).
    """

    __slots__ = ("matrix", "cap_geq", "solve", "sparse_base")

    def __init__(self, matrix, cap_geq):
        self.matrix = matrix
        self.cap_geq = cap_geq
        self.solve = None
        self.sparse_base = None


class _SparseSchedule:
    """Shared sparse assembly + factorization schedule for one plan.

    The canonical sparsity pattern is the union of the linear stamp
    entries, the capacitor companion entries, every FET group's
    Jacobian stamp entries, and the full diagonal (MNA voltage-source
    branch rows have structural-zero diagonals; carrying the diagonal
    lets regularization and gmin shunts write in place).  Every
    Jacobian the plan produces — one bias point or a stack of sweep
    instances — is then just a ``data`` vector over this one pattern:

    * :meth:`positions` maps stamp (row, col) lists to ``data``
      offsets at compile time, so assembly is ``np.add.at`` scatters
      exactly like the dense path.
    * The symbolic half of sparse LU — the fill-reducing COLAMD
      column ordering — is computed **once** (:attr:`n_symbolic`
      counts these); :meth:`factor` then refactorizes numerically by
      permuting the canonical ``data`` into a pre-gathered CSC layout
      and factoring with ``permc_spec="NATURAL"``.

    That split is what lets the sweep engines batch sparse plans: one
    schedule serves every instance's refactorization, and a stacked
    ``(m, nnz)`` data array *is* the batched Jacobian.
    """

    def __init__(self, plan):
        size = plan.size
        self.size = size
        diag = np.arange(size, dtype=np.intp)
        group_rows = [g.rows for g in plan.fet_groups]
        group_cols = [g.cols for g in plan.fet_groups]
        rows = np.concatenate(
            [plan._static_rows, plan._cap_rows, *group_rows, diag]
        )
        cols = np.concatenate(
            [plan._static_cols, plan._cap_cols, *group_cols, diag]
        )
        pattern = sparse.coo_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(size, size)
        ).tocsr()
        pattern.sum_duplicates()
        pattern.sort_indices()
        self.indices = pattern.indices.copy()
        self.indptr = pattern.indptr.copy()
        self.nnz = int(self.indices.size)
        # Flat row*size+col key per canonical entry, strictly
        # ascending — the searchsorted target for positions().
        counts = np.diff(self.indptr)
        self._canon_flat = (
            np.repeat(diag, counts) * size + self.indices.astype(np.intp)
        )
        self.diag_pos = self.positions(diag, diag)
        self.node_diag_pos = self.diag_pos[: plan.n_nodes]
        self.group_pos = [
            self.positions(g.rows, g.cols) for g in plan.fet_groups
        ]
        self._static_pos = self.positions(plan._static_rows, plan._static_cols)
        self._static_vals = plan._static_vals
        self._cap_pos = self.positions(plan._cap_rows, plan._cap_cols)
        self._cap_sign = plan._cap_sign
        self._cap_which = plan._cap_which
        # Symbolic state, built lazily by _ensure_symbolic().
        self.n_symbolic = 0
        self._perm_c: np.ndarray | None = None
        self._b_gather: np.ndarray | None = None
        self._b_indices: np.ndarray | None = None
        self._b_indptr: np.ndarray | None = None

    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Canonical ``data`` offsets of (row, col) stamp entries."""
        flat = np.asarray(rows, dtype=np.intp) * self.size + cols
        return np.searchsorted(self._canon_flat, flat).astype(np.intp)

    def linear_data(self, linear: _LinearSystem) -> np.ndarray:
        """Constant linear part as a canonical-pattern ``data`` vector.

        Cached on the :class:`_LinearSystem` (one per ``(dt,
        integrator)`` key); callers copy before scattering nonlinear
        values.
        """
        base = linear.sparse_base
        if base is None:
            base = np.zeros(self.nnz)
            np.add.at(base, self._static_pos, self._static_vals)
            if linear.cap_geq.size:
                np.add.at(
                    base,
                    self._cap_pos,
                    self._cap_sign * linear.cap_geq[self._cap_which],
                )
            linear.sparse_base = base
        return base

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        """Wrap one canonical ``data`` vector as a CSR matrix (no copy)."""
        return sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.size, self.size)
        )

    def capacitance_data(self, cap_c: np.ndarray) -> np.ndarray:
        """Capacitance stamp C as a canonical-pattern ``data`` vector.

        The capacitor entries live on the same canonical pattern as the
        conductance stamps, so the AC system ``G + j w C`` is a pure
        elementwise combination of two ``data`` vectors — no per-element
        walking, no pattern merging (see :mod:`repro.circuit.ac`).
        """
        data = np.zeros(self.nnz)
        if self._cap_pos.size:
            np.add.at(data, self._cap_pos, self._cap_sign * cap_c[self._cap_which])
        return data

    def _ensure_symbolic(self) -> None:
        if self._perm_c is not None:
            return
        # Fill-reducing ordering from one splu of a diagonally-dominant
        # placeholder on the canonical pattern (ones everywhere, the
        # diagonal lifted above any row sum so factorization cannot
        # fail).  The ordering depends only on the pattern, so every
        # numeric refactorization reuses it.
        data = np.ones(self.nnz)
        data[self.diag_pos] += float(self.size)
        lu = splu(self.matrix(data).tocsc())
        self._perm_c = lu.perm_c.astype(np.intp)
        # Pre-gathered CSC layout of B = A[:, perm_c]: b_gather maps
        # canonical CSR data positions into B's CSC data order, so a
        # refactorization is one fancy-index plus a NATURAL-order splu.
        acsc = sparse.csr_matrix(
            (np.arange(self.nnz, dtype=np.intp), self.indices, self.indptr),
            shape=(self.size, self.size),
        ).tocsc()
        starts, ends = acsc.indptr[:-1], acsc.indptr[1:]
        order = np.concatenate(
            [np.arange(starts[c], ends[c]) for c in self._perm_c]
        )
        self._b_gather = acsc.data[order]
        self._b_indices = acsc.indices[order]
        lengths = (ends - starts)[self._perm_c]
        self._b_indptr = np.concatenate(
            ([0], np.cumsum(lengths))
        ).astype(acsc.indptr.dtype)
        self.n_symbolic += 1

    def factor(self, data: np.ndarray):
        """Numeric refactorization of one canonical ``data`` vector.

        Returns a ``solve(rhs)`` callable for the *unpermuted* system
        (``A x = rhs``), or None when the matrix is numerically
        singular.  ``data`` may be complex: the gather, the CSC wrap
        and ``splu`` are all dtype-generic, which is what lets the
        compiled AC path (:mod:`repro.circuit.ac`) refactorize
        ``G + j w C`` per frequency against this one symbolic
        ordering.
        """
        self._ensure_symbolic()
        permuted = sparse.csc_matrix(
            (data[self._b_gather], self._b_indices, self._b_indptr),
            shape=(self.size, self.size),
        )
        try:
            lu = splu(permuted, permc_spec="NATURAL")
        except RuntimeError:
            return None
        perm_c = self._perm_c

        def solve(rhs: np.ndarray) -> np.ndarray:
            y = lu.solve(rhs)
            x = np.empty_like(y)
            x[perm_c] = y
            return x

        return solve


class StampPlan:
    """Precompiled assembly schedule for one :class:`MNASystem`."""

    def __init__(self, system):
        circuit = system.circuit
        for element in circuit.elements:
            if type(element) not in _COMPILED_TYPES:
                raise UnsupportedElement(
                    f"cannot compile element {element.name!r} of type "
                    f"{type(element).__name__}"
                )
        self.system = system
        self.size = system.size
        self.n_nodes = system.n_nodes
        self.use_sparse = self.size >= SPARSE_THRESHOLD

        size = self.size

        def pad(node: str) -> int:
            """Padded-vector index: ground maps to the trailing slot."""
            idx = system.node_index(node)
            return size if idx is None else idx

        def jac_idx(node: str) -> int:
            """Jacobian index: ground maps to -1 (entry dropped)."""
            idx = system.node_index(node)
            return -1 if idx is None else idx

        # -- constant (bias-independent) matrix entries --------------------------
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def put(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                rows.append(row)
                cols.append(col)
                vals.append(value)

        # -- capacitor companion pattern: value = sign * geq[cap] ---------------
        cap_rows: list[int] = []
        cap_cols: list[int] = []
        cap_sign: list[float] = []
        cap_which: list[int] = []

        def put_cap(row: int, col: int, sign: float, which: int) -> None:
            if row >= 0 and col >= 0:
                cap_rows.append(row)
                cap_cols.append(col)
                cap_sign.append(sign)
                cap_which.append(which)

        vsources: list[VoltageSource] = []
        isources: list[CurrentSource] = []
        capacitors: list[Capacitor] = []
        fet_bins: dict[tuple[int, float | None], list[FET]] = {}
        fet_devices: dict[tuple[int, float | None], object] = {}
        fet_columns: dict[int, int] = {}

        for element in circuit.elements:
            if isinstance(element, Resistor):
                g = 1.0 / element.resistance_ohm
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                put(ip, ip, g)
                put(ip, in_, -g)
                put(in_, ip, -g)
                put(in_, in_, g)
            elif isinstance(element, VoltageSource):
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                br = element.branch_index
                put(ip, br, 1.0)
                put(in_, br, -1.0)
                put(br, ip, 1.0)
                put(br, in_, -1.0)
                vsources.append(element)
            elif isinstance(element, CurrentSource):
                isources.append(element)
            elif isinstance(element, Capacitor):
                which = len(capacitors)
                ip, in_ = jac_idx(element.p), jac_idx(element.n)
                put_cap(ip, ip, 1.0, which)
                put_cap(ip, in_, -1.0, which)
                put_cap(in_, ip, -1.0, which)
                put_cap(in_, in_, 1.0, which)
                capacitors.append(element)
            else:  # FET
                base_device, _ = _unwrap_polarity(element.device)
                key = (id(base_device), element.delta_v)
                fet_bins.setdefault(key, []).append(element)
                fet_devices[key] = base_device
                fet_columns[id(element)] = len(fet_columns)

        self._static_rows = np.array(rows, dtype=np.intp)
        self._static_cols = np.array(cols, dtype=np.intp)
        self._static_vals = np.array(vals, dtype=float)

        self._cap_rows = np.array(cap_rows, dtype=np.intp)
        self._cap_cols = np.array(cap_cols, dtype=np.intp)
        self._cap_sign = np.array(cap_sign, dtype=float)
        self._cap_which = np.array(cap_which, dtype=np.intp)

        self.vsources = vsources
        self.vsrc_branch = np.array(
            [el.branch_index for el in vsources], dtype=np.intp
        )
        self.isources = isources
        self.isrc_p = np.array([pad(el.p) for el in isources], dtype=np.intp)
        self.isrc_n = np.array([pad(el.n) for el in isources], dtype=np.intp)

        self.capacitors = capacitors
        self.cap_names = [el.name for el in capacitors]
        self.cap_p = np.array([pad(el.p) for el in capacitors], dtype=np.intp)
        self.cap_n = np.array([pad(el.n) for el in capacitors], dtype=np.intp)
        self.cap_c = np.array([el.capacitance_f for el in capacitors], dtype=float)
        self.cap_scatter = np.concatenate((self.cap_p, self.cap_n))
        self._cap_vals = np.empty(2 * len(capacitors))

        self.fet_groups = [
            _FETGroup(
                fet_devices[key], key[1], fets,
                [fet_columns[id(f)] for f in fets], pad, jac_idx, size,
            )
            for key, fets in fet_bins.items()
        ]
        # Linear-only circuits have a bias-independent Jacobian: the
        # Newton solver then routes steps through linear_step()'s cached
        # factorization instead of refactorizing every iteration.
        self.linear_only = not self.fet_groups

        # -- per-call buffers ---------------------------------------------------
        self._xpad = np.zeros(size + 1)
        self._prevpad = np.zeros(size + 1)
        self._rpad = np.zeros(size + 1)
        if self.use_sparse:
            self._jac = self._jac_flat = None
        else:
            self._jac = np.zeros((size, size))
            self._jac_flat = self._jac.ravel()
        self._lin_cache: dict[object, _LinearSystem] = {}
        self._cap_stamp: np.ndarray | None = None
        # Flat-index base of each row in evaluate_many's residual and
        # Jacobian scatters, per stack height.
        self._row_bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # Shared canonical pattern + one-time symbolic ordering for
        # every sparse Jacobian this plan (or a sweep over it) builds.
        self.sparse_schedule = _SparseSchedule(self) if self.use_sparse else None

    def capacitance_stamp(self) -> np.ndarray:
        """The capacitance matrix C of the AC system ``(G + j w C) x = b``.

        Built once from the compiled capacitor stamp pattern — the same
        ``(rows, cols, sign, which)`` arrays the transient companion
        model scatters through — instead of walking elements into an
        O(size^2) dense loop per analysis.  Dense plans return a
        ``(size, size)`` array; sparse plans return the canonical-
        pattern ``data`` vector (wrap with ``sparse_schedule.matrix``
        for a matrix view).  Cached: callers must not mutate the
        result.
        """
        if self._cap_stamp is None:
            if self.use_sparse:
                self._cap_stamp = self.sparse_schedule.capacitance_data(self.cap_c)
            else:
                stamp = np.zeros((self.size, self.size))
                if self._cap_rows.size:
                    np.add.at(
                        stamp,
                        (self._cap_rows, self._cap_cols),
                        self._cap_sign * self.cap_c[self._cap_which],
                    )
                self._cap_stamp = stamp
        return self._cap_stamp

    # -- linear subsystem cache ---------------------------------------------------
    def _linear_system(self, dt_s: float | None, integrator: str) -> _LinearSystem:
        if dt_s is None:
            key: object = None
        else:
            method = "backward-euler" if integrator == "backward-euler" else "trapezoidal"
            key = (float(dt_s), method)
        cached = self._lin_cache.get(key)
        if cached is not None:
            return cached

        if dt_s is None:
            cap_geq = np.zeros(0)
            rows, cols, vals = self._static_rows, self._static_cols, self._static_vals
        else:
            if integrator == "backward-euler":
                cap_geq = self.cap_c / dt_s
            else:
                cap_geq = 2.0 * self.cap_c / dt_s
            rows = np.concatenate((self._static_rows, self._cap_rows))
            cols = np.concatenate((self._static_cols, self._cap_cols))
            vals = np.concatenate(
                (self._static_vals, self._cap_sign * cap_geq[self._cap_which])
            )

        if self.use_sparse:
            matrix = sparse.coo_matrix(
                (vals, (rows, cols)), shape=(self.size, self.size)
            ).tocsr()
        else:
            matrix = np.zeros((self.size, self.size))
            np.add.at(matrix, (rows, cols), vals)
        linear = _LinearSystem(matrix, cap_geq)
        self._lin_cache[key] = linear
        return linear

    def linear_step(
        self,
        residual: np.ndarray,
        dt_s: float | None = None,
        integrator: str = "trapezoidal",
    ) -> np.ndarray | None:
        """Newton step ``A^-1 (-residual)`` from the cached factorization.

        Only meaningful for linear-only plans (``self.linear_only``),
        whose Jacobian equals the constant matrix for every iterate.
        The LU factors are built once per ``(dt, integrator)`` key with
        the solver's tiny diagonal regularization.  Returns None when
        the matrix cannot be factorized or the solve is non-finite.
        """
        linear = self._linear_system(dt_s, integrator)
        if linear.solve is None:
            if self.use_sparse:
                schedule = self.sparse_schedule
                data = schedule.linear_data(linear).copy()
                data[schedule.diag_pos] += DIAG_REGULARIZATION
                solve = schedule.factor(data)
                if solve is None:
                    return None
                linear.solve = solve
            else:
                matrix = linear.matrix.copy()
                diagonal = np.einsum("ii->i", matrix)
                diagonal += DIAG_REGULARIZATION
                factors = lu_factor(matrix, check_finite=False)
                linear.solve = lambda rhs: lu_solve(factors, rhs, check_finite=False)
        step = linear.solve(-residual)
        return step if np.all(np.isfinite(step)) else None

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self,
        x: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        state: dict | np.ndarray | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
    ):
        """Residual F(x) and Jacobian dF/dx via the compiled plan.

        Dense mode returns views of reused buffers; sparse mode returns a
        fresh ``scipy.sparse`` CSR Jacobian and a reused residual view.
        ``state`` holds the trapezoidal history currents, as a dict by
        capacitor name or an ``(n_caps,)`` array in ``cap_names`` order.
        ``gmin`` adds a shunt conductance from every node to ground;
        with ``gmin_ref`` the shunt anchors at that reference vector
        instead — the pseudo-transient continuation stamp
        ``gmin * (x - gmin_ref)`` (the Jacobian term is identical).
        """
        size = self.size
        xpad = self._xpad
        xpad[:size] = x
        linear = self._linear_system(dt_s, integrator)

        rpad = self._rpad
        rpad[:] = 0.0
        residual = rpad[:size]
        residual += linear.matrix @ x

        if self.vsrc_branch.size:
            levels = np.array([el.level(time_s) for el in self.vsources])
            residual[self.vsrc_branch] -= source_scale * levels
        if self.isrc_p.size:
            currents = source_scale * np.array(
                [el.level(time_s) for el in self.isources]
            )
            np.add.at(rpad, self.isrc_p, currents)
            np.add.at(rpad, self.isrc_n, -currents)

        if dt_s is not None and self.cap_c.size:
            prevpad = self._prevpad
            prevpad[:size] = x if previous_x is None else previous_x
            if isinstance(state, dict):
                state = self.cap_state_array(state) if state else None
            rhs = self.cap_history_rhs(prevpad, linear.cap_geq, integrator, state)
            cap_vals = self._cap_vals
            cap_vals[: rhs.size] = rhs
            np.negative(rhs, out=cap_vals[rhs.size :])
            np.add.at(rpad, self.cap_scatter, cap_vals)

        if self.use_sparse:
            schedule = self.sparse_schedule
            data = schedule.linear_data(linear).copy()
            for group, pos in zip(self.fet_groups, schedule.group_pos):
                current, gm, gds = group.linearize(xpad)
                np.add.at(rpad, group.scatter_idx, group.residual_values(current))
                np.add.at(data, pos, group.jacobian_values(gm, gds))
            if gmin > 0.0:
                data[schedule.node_diag_pos] += gmin
            jacobian = schedule.matrix(data)
        else:
            jacobian = self._jac
            np.copyto(jacobian, linear.matrix)
            jac_flat = self._jac_flat
            for group in self.fet_groups:
                if group.use_points:
                    group.stamp_points(xpad, rpad, jac_flat)
                    continue
                current, gm, gds = group.linearize(xpad)
                np.add.at(rpad, group.scatter_idx, group.residual_values(current))
                np.add.at(jac_flat, group.flat, group.jacobian_values(gm, gds))
            if gmin > 0.0:
                diag = np.einsum("ii->i", jacobian)
                diag[: self.n_nodes] += gmin

        if gmin > 0.0:
            residual[: self.n_nodes] += gmin * x[: self.n_nodes]
            if gmin_ref is not None:
                residual[: self.n_nodes] -= gmin * gmin_ref[: self.n_nodes]
        return residual, jacobian

    def evaluate_many(
        self,
        x_stack: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        state: dict | np.ndarray | None = None,
        source_scale: float = 1.0,
        gmin: float = 0.0,
        gmin_ref: np.ndarray | None = None,
        variation: FETVariation | None = None,
    ):
        """Residuals ``(m, size)`` and Jacobians at a stack of iterates.

        The one batched stamp kernel, and the only evaluation the Newton
        loop (:func:`repro.circuit.solver.newton_many`) makes: one row
        per pending iterate, or one per sweep instance.  A one-row stack
        with no variation is the scalar :meth:`evaluate` call, so scalar
        solves keep its cost.  Jacobians are dense ``(m, size, size)``
        buffers, or ``(m, nnz)`` canonical-pattern CSR ``data`` stacks
        for sparse plans (wrap a row with ``sparse_schedule.matrix``).
        Returns fresh arrays — rows survive subsequent calls.

        Keyword arguments follow :meth:`evaluate`.  ``previous_x`` is
        one shared ``(size,)`` vector or one row per iterate; ``state``
        is the scalar path's history dict, or an ``(m, n_caps)`` array
        of per-row trapezoidal history currents in ``cap_names``
        order.  ``variation`` (a
        :class:`~repro.circuit.sweep.FETVariation` with ``m`` rows)
        scales each FET's current and shifts its underlying n-type
        threshold per row.

        Every step is elementwise per row — a batched gemv (CSR
        column-wise matvecs for sparse plans) for the linear part,
        per-row scatters, elementwise device math — so each row is
        bitwise independent of its neighbours; that is the root of the
        sweep engines' chunking/order/pool invariance.
        """
        x_stack = np.asarray(x_stack, dtype=float)
        m = x_stack.shape[0]
        size = self.size
        schedule = self.sparse_schedule
        if m == 1 and variation is None:
            if previous_x is not None:
                previous_x = np.asarray(previous_x).reshape(size)
            if isinstance(state, np.ndarray):
                state = state.reshape(-1)
            residual, jacobian = self.evaluate(
                x_stack[0], time_s, dt_s, previous_x, integrator, state,
                source_scale, gmin, gmin_ref,
            )
            jacobian = jacobian.data if schedule is not None else jacobian.copy()
            return residual[None].copy(), jacobian[None]
        bases = self._row_bases.get(m)
        if bases is None:
            stride = size * size if schedule is None else schedule.nnz
            rows = np.arange(m, dtype=np.intp)[:, None]
            bases = self._row_bases[m] = (rows * (size + 1), rows * stride)
        row_pad, row_jac = bases
        linear = self._linear_system(dt_s, integrator)

        xpad = np.zeros((m, size + 1))
        xpad[:, :size] = x_stack
        rpad = np.zeros((m, size + 1))
        if schedule is not None:
            # scipy's CSR matvecs kernel runs the scalar matvec per
            # column, so each row matches evaluate()'s ``matrix @ x``.
            rpad[:, :size] = (linear.matrix @ x_stack.T).T
        else:
            rpad[:, :size] = np.matmul(linear.matrix, x_stack[..., None])[..., 0]
        rflat = rpad.reshape(-1)
        if self.vsrc_branch.size:
            levels = np.array([el.level(time_s) for el in self.vsources])
            rpad[:, self.vsrc_branch] -= source_scale * levels
        if self.isrc_p.size:
            currents = source_scale * np.array(
                [el.level(time_s) for el in self.isources]
            )
            # ufunc.at does not broadcast shared values against a stack
            # of per-row indices (it reads out of bounds); broadcast
            # explicitly.
            shared = np.broadcast_to(currents, (m, currents.size))
            np.add.at(rflat, row_pad + self.isrc_p, shared)
            np.add.at(rflat, row_pad + self.isrc_n, -shared)
        if dt_s is not None and self.cap_c.size:
            if previous_x is None:
                # evaluate() anchors the companion model at the iterate
                # itself when no previous solution is given.
                prevpad = xpad
            else:
                previous_x = np.asarray(previous_x, dtype=float)
                prevpad = np.zeros(previous_x.shape[:-1] + (size + 1,))
                prevpad[..., :size] = previous_x
            if isinstance(state, dict):
                state = self.cap_state_array(state) if state else None
            rhs = self.cap_history_rhs(prevpad, linear.cap_geq, integrator, state)
            cap_vals = np.concatenate((rhs, -rhs), axis=-1)
            if cap_vals.ndim == 1:
                # Shared companion state: one value row for every iterate.
                cap_vals = np.broadcast_to(cap_vals, (m, cap_vals.size))
            np.add.at(rflat, row_pad + self.cap_scatter, cap_vals)

        if schedule is not None:
            jac = np.empty((m, schedule.nnz))
            jac[:] = schedule.linear_data(linear)
            targets = schedule.group_pos
        else:
            jac = np.empty((m, size, size))
            jac[:] = linear.matrix
            targets = [group.flat for group in self.fet_groups]
        jflat = jac.reshape(-1)
        for group, target in zip(self.fet_groups, targets):
            v = xpad[:, group.gather_dgs]  # (m, 3, count)
            vgs = v[:, 1] - v[:, 2]
            vds = v[:, 0] - v[:, 2]
            if group.sign is not None:
                vgs = group.sign * vgs
                vds = group.sign * vds
            if variation is not None:
                vgs = vgs - variation.vth_shift_v[:, group.columns]
            current, gm, gds = group.device.linearize(vgs, vds, group.delta_v)
            if group.sign is not None:
                current = group.sign * current
            if variation is not None:
                scale = variation.drive_scale[:, group.columns]
                current = current * scale
                gm = gm * scale
                gds = gds * scale
            rvals = np.concatenate((current, -current), axis=1)
            np.add.at(rflat, row_pad + group.scatter_idx, rvals)
            vals6 = np.stack(
                (gds, gm, -(gm + gds), -gds, -gm, gm + gds), axis=1
            )  # (m, 6, count), entry order matching group.take
            entries = vals6.reshape(m, 6 * group.count)[:, group.take]
            np.add.at(jflat, row_jac + target, entries)

        residual = rpad[:, :size]
        if gmin > 0.0:
            n_nodes = self.n_nodes
            residual[:, :n_nodes] += gmin * x_stack[:, :n_nodes]
            if gmin_ref is not None:
                residual[:, :n_nodes] -= gmin * gmin_ref[:n_nodes]
            if schedule is not None:
                jac[:, schedule.node_diag_pos] += gmin
            else:
                diag = np.einsum("ijj->ij", jac)
                diag[:, :n_nodes] += gmin
        return residual, jac

    # -- transient support ----------------------------------------------------------
    def cap_state_array(self, state: dict | None) -> np.ndarray:
        """Capacitor history currents as an array in ``cap_names`` order."""
        if not state:
            return np.zeros(len(self.cap_names))
        return np.array([state.get(name, 0.0) for name in self.cap_names])

    def cap_history_rhs(
        self,
        prevpad: np.ndarray,
        cap_geq: np.ndarray,
        integrator: str,
        state_currents: np.ndarray | None = None,
    ) -> np.ndarray:
        """Companion-model history RHS per capacitor: ``-geq v_prev - i_prev``.

        Batchable: ``prevpad`` is a padded previous-solution stack of
        shape ``(..., size + 1)`` (ground in the trailing slot) and
        ``state_currents`` — the trapezoidal history currents, ignored
        under backward Euler — broadcasts as ``(..., n_caps)``.  The
        scalar :meth:`evaluate` path and the batched sweep engine share
        this arithmetic, so their residuals agree bitwise.
        """
        v_prev = prevpad[..., self.cap_p] - prevpad[..., self.cap_n]
        rhs = -cap_geq * v_prev
        if integrator != "backward-euler" and state_currents is not None:
            rhs = rhs - state_currents
        return rhs

    def cap_state_update(
        self,
        xpad: np.ndarray,
        prevpad: np.ndarray,
        dt_s: float,
        integrator: str,
        state_currents: np.ndarray | None = None,
    ) -> np.ndarray:
        """New history currents at an accepted solution (batchable).

        ``xpad``/``prevpad`` are padded solution stacks ``(..., size +
        1)``; returns ``(..., n_caps)`` trapezoidal (or backward-Euler)
        capacitor currents.  The scalar per-step update and the batched
        transient engine both route through this method.
        """
        v_now = xpad[..., self.cap_p] - xpad[..., self.cap_n]
        v_prev = prevpad[..., self.cap_p] - prevpad[..., self.cap_n]
        if integrator == "backward-euler":
            return self.cap_c / dt_s * (v_now - v_prev)
        geq = 2.0 * self.cap_c / dt_s
        i_prev = 0.0 if state_currents is None else state_currents
        return geq * (v_now - v_prev) - i_prev

    def update_capacitor_state(
        self,
        x: np.ndarray,
        previous_x: np.ndarray,
        dt_s: float,
        integrator: str,
        state: dict,
    ) -> None:
        """Vectorised trapezoidal/backward-Euler history update (in place)."""
        if not self.cap_c.size:
            return
        size = self.size
        xpad = self._xpad
        xpad[:size] = x
        prevpad = self._prevpad
        prevpad[:size] = previous_x
        i_prev = self.cap_state_array(state) if integrator != "backward-euler" else None
        i_new = self.cap_state_update(xpad, prevpad, dt_s, integrator, i_prev)
        for name, value in zip(self.cap_names, i_new):
            state[name] = float(value)
