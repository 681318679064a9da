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
  CSR matrices through a :class:`_SparseSchedule` (the first one built
  in a process imports scipy; dense plans never do): one canonical
  sparsity pattern (linear stamps ∪ FET stamps ∪ full diagonal) shared
  by every evaluation, with precomputed scatter positions so a
  Jacobian is just a ``data`` vector.  The schedule computes the
  fill-reducing column ordering **once** (symbolic analysis) and every
  Newton step refactorizes only numerically against it — this is also
  what lets the sweep engines stack N instances' CSR ``data`` arrays
  as ``(m, nnz)`` and batch sparse Monte Carlo.  Smaller systems — all
  the seed circuits — assemble dense ``(size, size)`` Jacobians.

One kernel evaluates a plan: :meth:`StampPlan.evaluate_many`, at a
stack of iterates, optionally with per-row device variation and
companion state.  A scalar evaluation is its one-row call
(:meth:`repro.circuit.netlist.MNASystem.evaluate`), through the same
array path and the same batched ``linearize``, so a one-row result is
bitwise its row of any stack.  Every call returns fresh arrays.  A
caller that evaluates the same iterates twice (the time-step loop, at
each step's start point) passes the device outputs of the first call
back as ``linearized`` and skips the second ``linearize``.

The compiled path is numerically equivalent to the reference path (same
stamps, same finite-difference linearization arithmetic); the test suite
asserts residual/Jacobian agreement to 1e-12 on representative circuits.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

import numpy as np

from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.devices.base import PType

if TYPE_CHECKING:  # pragma: no cover - sweep imports this module
    from scipy import sparse
    from scipy.sparse.linalg import splu

    from repro.circuit.sweep import FETVariation

__all__ = ["StampPlan", "UnsupportedElement", "SPARSE_THRESHOLD"]

# The scipy modules of the names :func:`__getattr__` binds on first
# access.  Sparse plans use ``sparse`` and ``splu``; ``lu_factor`` and
# ``lu_solve`` exist only for perfbench's tracer, which wraps them here.
_SCIPY = {
    "sparse": "scipy",
    "splu": "scipy.sparse.linalg",
    "lu_factor": "scipy.linalg",
    "lu_solve": "scipy.linalg",
}


def __getattr__(name: str):
    """Import a scipy name of ``_SCIPY`` on first access and keep it here (PEP 562).

    Dense plans never touch scipy, so importing this module does not
    load it.  The name stays in the module globals, where the sparse
    code looks it up at call time and where a tracer may wrap it.
    """
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY[name]), name)
    globals()[name] = value
    return value


# Unknown-count at which assembly (and the Newton solve) switch from
# dense Jacobian stacks to scipy.sparse CSR matrices.
SPARSE_THRESHOLD = 128

# Diagonal regularization added to every Newton Jacobian before it is
# factorized (the Newton solver imports it).
DIAG_REGULARIZATION = 1e-14

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


# Each of a FET's six Jacobian entries as (index into the
# ``(gds, gm, gm + gds)`` triple, sign), in _FETGroup's slot order.
_JACOBIAN_SLOTS = np.array([0, 1, 2, 0, 1, 2], dtype=np.intp)
_JACOBIAN_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])


class _FETGroup:
    """All FETs sharing one (polarity-unwrapped) device-model instance.

    ``gather_dsg`` index the padded voltage vector (ground at index
    ``size``); ``rows``/``cols``/``take`` address the 6-entry-per-FET
    Jacobian stamp pattern with ground rows/columns masked out, and
    ``target`` (set by the plan) is where those entries land in one
    row's Jacobian.
    """

    __slots__ = (
        "device", "count", "sign", "gather_dsg", "flat",
        "rows", "cols", "take", "pick", "pick_sign", "target", "columns",
    )

    def __init__(
        self, device, fets: list, columns: list[int],
        pad, jac_idx, size: int,
    ):
        self.device = device
        self.count = len(fets)
        # Each slot's column in a FETVariation (the circuit's FET order).
        self.columns = np.array(columns, dtype=np.intp)
        signs = np.array([_unwrap_polarity(f.device)[1] for f in fets])
        self.sign = None if np.all(signs == 1.0) else signs
        gather_d = np.array([pad(f.drain) for f in fets], dtype=np.intp)
        gather_g = np.array([pad(f.gate) for f in fets], dtype=np.intp)
        gather_s = np.array([pad(f.source) for f in fets], dtype=np.intp)
        # Drain, source, gate: the first two rows are the residual targets.
        self.gather_dsg = np.stack((gather_d, gather_s, gather_g))
        jd = np.array([jac_idx(f.drain) for f in fets], dtype=np.intp)
        jg = np.array([jac_idx(f.gate) for f in fets], dtype=np.intp)
        js = np.array([jac_idx(f.source) for f in fets], dtype=np.intp)
        # Entry order matches _JACOBIAN_SLOTS:
        # (d,d)=gds (d,g)=gm (d,s)=-(gm+gds) (s,d)=-gds (s,g)=-gm (s,s)=gm+gds
        rows6 = np.stack((jd, jd, jd, js, js, js))
        cols6 = np.stack((jd, jg, js, jd, jg, js))
        valid = ((rows6 >= 0) & (cols6 >= 0)).ravel()
        self.take = np.nonzero(valid)[0]
        self.rows = rows6.ravel()[self.take]
        self.cols = cols6.ravel()[self.take]
        self.flat = self.rows * size + self.cols
        # Each surviving entry's pick from a row's (gds, gm, gm + gds)
        # triples, and its sign.
        slot, fet = np.divmod(self.take, self.count)
        self.pick = _JACOBIAN_SLOTS[slot] * self.count + fet
        self.pick_sign = _JACOBIAN_SIGNS[slot]


def _per_row(values: np.ndarray, m: int) -> np.ndarray:
    """Flat values of an ``m``-row stack from ``(m, k)`` or shared ``(k,)`` ones."""
    if values.ndim > 1:
        return values.reshape(-1)
    return values if m == 1 else np.tile(values, m)


class _StackLayout:
    """Flat scatter/gather indices of an ``m``-row evaluation stack.

    Each array lists row 0's indices, then row 1's, and so on (row
    ``r`` of the residual starts at flat offset ``r * (size + 1)``, of
    the Jacobian at ``r * stride``), so the first rows of a tall layout
    are the layout of a shorter stack (:meth:`head`).  ``sources``: the
    voltage-source rows and the current-source and capacitor scatters.
    Per FET group, ``groups`` holds drain/source/gate voltage gathers
    ``(3, m * count)`` (the first two rows are the residual targets)
    and polarity signs (or None); :meth:`stamp` gives each Jacobian
    entry's pick from its row's ``(gds, gm, gm + gds)`` triples, its
    sign and its target.  A layout built with ``keep=False`` makes
    those on demand, so they never coexist with the device's
    temporaries.
    """

    __slots__ = ("m", "rows", "stride", "sources", "groups", "stamps")

    def __init__(self, plan, m: int, keep: bool = True):
        rows = np.arange(m, dtype=np.intp)[:, None]
        pad = rows * (plan.size + 1)
        schedule = plan.sparse_schedule
        self.m = m
        self.rows = rows
        self.stride = plan.size * plan.size if schedule is None else schedule.nnz
        self.sources = [
            (pad + index).reshape(-1)
            for index in (plan.vsrc_branch, plan.isrc_scatter, plan.cap_scatter)
        ]
        self.groups = [
            (
                (pad + group.gather_dsg[:, None, :]).reshape(3, -1),
                None if group.sign is None else np.tile(group.sign, m),
            )
            for group in plan.fet_groups
        ]
        self.stamps = (
            [self._stamp(group) for group in plan.fet_groups] if keep else None
        )

    def _stamp(self, group: _FETGroup) -> tuple:
        return (
            (self.rows * (3 * group.count) + group.pick).reshape(-1),
            np.tile(group.pick_sign, self.m),
            (self.rows * self.stride + group.target).reshape(-1),
        )

    def stamp(self, i: int, group: _FETGroup) -> tuple:
        """``(pick, sign, target)`` of group ``i``'s Jacobian entries."""
        return self._stamp(group) if self.stamps is None else self.stamps[i]

    def head(self, m: int) -> "_StackLayout":
        """The layout of the first ``m`` rows (views)."""
        if m == self.m:
            return self

        def cut(a):
            return None if a is None else a[..., : a.shape[-1] // self.m * m]

        head = object.__new__(_StackLayout)
        head.m, head.rows, head.stride = m, self.rows[:m], self.stride
        head.sources = [cut(a) for a in self.sources]
        head.groups = [tuple(map(cut, arrays)) for arrays in self.groups]
        head.stamps = [tuple(map(cut, arrays)) for arrays in self.stamps]
        return head


class _LinearSystem:
    """Cached constant linear part for one ``(dt, integrator)`` key.

    ``sparse_base`` caches this linear part scattered onto the plan's
    canonical sparse pattern (see :class:`_SparseSchedule`).
    """

    __slots__ = ("matrix", "cap_geq", "sparse_base")

    def __init__(self, matrix, cap_geq):
        self.matrix = matrix
        self.cap_geq = cap_geq
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
      and factoring with ``permc_spec="NATURAL"``.  The layout holds
      the columns in the order SuperLU analysed: its ``perm_c``
      satisfies ``Pr A Pc = L U`` with ``Pc[k, perm_c[k]] = 1``, so
      the factored matrix is ``A[:, q]`` with ``q = argsort(perm_c)``
      (``A[:, perm_c]`` is a scrambled order with up to 40x the fill).

    That split is what lets the sweep engines batch sparse plans: one
    schedule serves every instance's refactorization, and a stacked
    ``(m, nnz)`` data array *is* the batched Jacobian.
    """

    def __init__(self, plan):
        # The first sparse plan of a process loads scipy; a name already
        # bound (and perhaps wrapped by a tracer) is kept.
        for name in ("sparse", "splu"):
            if name not in globals():
                __getattr__(name)
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
        self._col_order: np.ndarray | None = None
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
        if self._col_order is not None:
            return
        # Fill-reducing ordering from one splu of a diagonally-dominant
        # placeholder on the canonical pattern (ones everywhere, the
        # diagonal lifted above any row sum so factorization cannot
        # fail).  The ordering depends only on the pattern, so every
        # numeric refactorization reuses it.
        data = np.ones(self.nnz)
        data[self.diag_pos] += float(self.size)
        lu = splu(self.matrix(data).tocsc())
        # SuperLU factors A Pc with Pc[k, perm_c[k]] = 1: column j of
        # A Pc is column argsort(perm_c)[j] of A.
        self._col_order = np.argsort(lu.perm_c).astype(np.intp)
        # Pre-gathered CSC layout of B = A[:, col_order]: b_gather maps
        # canonical CSR data positions into B's CSC data order, so a
        # refactorization is one fancy-index plus a NATURAL-order splu.
        acsc = sparse.csr_matrix(
            (np.arange(self.nnz, dtype=np.intp), self.indices, self.indptr),
            shape=(self.size, self.size),
        ).tocsc()
        starts, ends = acsc.indptr[:-1], acsc.indptr[1:]
        order = np.concatenate(
            [np.arange(starts[c], ends[c]) for c in self._col_order]
        )
        self._b_gather = acsc.data[order]
        self._b_indices = acsc.indices[order]
        lengths = (ends - starts)[self._col_order]
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
        col_order = self._col_order

        def solve(rhs: np.ndarray) -> np.ndarray:
            # B y = rhs with B = A[:, col_order], so x[col_order] = y.
            y = lu.solve(rhs)
            x = np.empty_like(y)
            x[col_order] = y
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
        fet_bins: dict[int, list[FET]] = {}
        fet_devices: dict[int, object] = {}
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
                key = id(base_device)
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
        self.isrc_scatter = np.concatenate((self.isrc_p, self.isrc_n))

        self.capacitors = capacitors
        self.cap_names = [el.name for el in capacitors]
        self.cap_p = np.array([pad(el.p) for el in capacitors], dtype=np.intp)
        self.cap_n = np.array([pad(el.n) for el in capacitors], dtype=np.intp)
        self.cap_c = np.array([el.capacitance_f for el in capacitors], dtype=float)
        self.cap_scatter = np.concatenate((self.cap_p, self.cap_n))

        self.fet_groups = [
            _FETGroup(
                fet_devices[key], fets,
                [fet_columns[id(f)] for f in fets], pad, jac_idx, size,
            )
            for key, fets in fet_bins.items()
        ]

        self._lin_cache: dict[object, _LinearSystem] = {}
        self._cap_stamp: np.ndarray | None = None
        # Shared canonical pattern + one-time symbolic ordering for
        # every sparse Jacobian this plan (or a sweep over it) builds.
        self.sparse_schedule = _SparseSchedule(self) if self.use_sparse else None
        # Where each FET group's Jacobian entries land in one row.
        targets = (
            self.sparse_schedule.group_pos
            if self.sparse_schedule
            else [group.flat for group in self.fet_groups]
        )
        for group, target in zip(self.fet_groups, targets):
            group.target = target
        # The one-row layout, and the tallest stack's: shorter stacks
        # use its first rows, so one layout serves every height.
        self._one_row = self._tallest = _StackLayout(self, 1)

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

    # -- evaluation ---------------------------------------------------------------
    def evaluate_many(
        self,
        x_stack: np.ndarray,
        time_s: float | None = None,
        dt_s: float | None = None,
        previous_x: np.ndarray | None = None,
        integrator: str = "trapezoidal",
        state: dict | np.ndarray | None = None,
        gmin: float | np.ndarray = 0.0,
        gmin_ref: np.ndarray | None = None,
        variation: FETVariation | None = None,
        source_levels: np.ndarray | None = None,
        linearized: list | None = None,
    ):
        """Residuals ``(m, size)`` and Jacobians at a stack of iterates.

        The one stamp kernel: one row per Newton iterate or sweep
        instance, and a scalar evaluation is a one-row stack.  Returns
        fresh arrays; Jacobians are dense ``(m, size, size)`` stacks, or
        ``(m, nnz)`` canonical-pattern CSR ``data`` for sparse plans
        (wrap a row with ``sparse_schedule.matrix``).

        Keyword arguments follow
        :meth:`~repro.circuit.netlist.MNASystem.evaluate_dense`.
        ``previous_x`` is shared ``(size,)`` or per row ``(m, size)``;
        ``state`` (trapezoidal history currents) is a shared dict or
        ``(n_caps,)`` array, or per row ``(m, n_caps)`` in
        ``cap_names`` order.  ``gmin`` shunts every node to ground, or
        with ``gmin_ref`` to that reference vector (the pseudo-transient
        stamp ``gmin * (x - gmin_ref)``); ``gmin`` is a shared scalar
        or per row ``(m,)``, ``gmin_ref`` shared
        ``(size,)`` or per row ``(m, size)``.  ``variation`` (a
        :class:`~repro.circuit.sweep.FETVariation` with ``m`` rows)
        scales each FET's current and shifts its n-type threshold.
        ``source_levels`` ``(m, n_vsources)`` gives each row its own
        voltage-source levels, in ``vsources`` order, in place of the
        waveforms' levels at ``time_s`` (a DC sweep's rows).
        ``linearized`` holds one entry per FET group (``fet_groups``
        order): a ``(3, m, count)`` array of the device outputs ``(id,
        gm, gds)`` at ``x_stack``, before the polarity sign and the
        drive scale, or None.  An array is stamped in place of the
        group's ``linearize`` call; a None entry is replaced by the
        outputs this call computes.  Without ``linearized`` nothing is
        kept.

        Every step is elementwise per row — a batched gemv (CSR
        column-wise matvecs for sparse plans), per-row scatters,
        elementwise device math on flat ``(m * count,)`` biases — so
        each row is bitwise independent of its neighbours, a one-row
        call included: the root of the sweep engines' chunking/order/pool
        invariance.
        """
        x_stack = np.asarray(x_stack, dtype=float)
        m = x_stack.shape[0]
        size = self.size
        schedule = self.sparse_schedule
        if m == 1:
            layout = self._one_row
        elif self._tallest.m >= m:
            layout = self._tallest.head(m)
        elif schedule is None:
            layout = self._tallest = _StackLayout(self, m)
        else:
            # A sparse layout grows with FET count times stack height:
            # rebuilt per call, it never outlives the stack it serves.
            # (Cached, or with its picks built before the device call,
            # it raised a process's peak RSS by 12 % or 8 % over
            # 1024-row sparse Monte Carlo chunks.)
            layout = _StackLayout(self, m, keep=False)
        linear = self._linear_system(dt_s, integrator)

        xpad = np.zeros((m, size + 1))
        xpad[:, :size] = x_stack
        xflat = xpad.reshape(-1)
        rpad = np.zeros((m, size + 1))
        if schedule is not None:
            # scipy's CSR matvecs kernel runs the scalar matvec per
            # column, so each row matches a one-row ``matrix @ x``.
            rpad[:, :size] = (linear.matrix @ x_stack.T).T
        else:
            np.matmul(linear.matrix, x_stack[..., None], out=rpad[:, :size, None])
        rflat = rpad.reshape(-1)
        if self.vsrc_branch.size:
            levels = source_levels
            if levels is None:
                levels = np.array([el.level(time_s) for el in self.vsources])
            rflat[layout.sources[0]] -= _per_row(levels, m)
        if self.isrc_p.size:
            levels = np.array([el.level(time_s) for el in self.isources])
            currents = np.concatenate((levels, -levels))
            np.add.at(rflat, layout.sources[1], _per_row(currents, m))
        if dt_s is not None and self.cap_c.size:
            if previous_x is None:
                # The companion model anchors at the iterate itself when
                # no previous solution is given.
                prevpad = xpad
            else:
                previous_x = np.asarray(previous_x, dtype=float)
                prevpad = np.zeros(previous_x.shape[:-1] + (size + 1,))
                prevpad[..., :size] = previous_x
            if isinstance(state, dict):
                state = self.cap_state_array(state) if state else None
            # Companion history per capacitor, -geq v_prev - i_prev; the
            # history current i_prev is trapezoidal only.
            v_prev = prevpad[..., self.cap_p] - prevpad[..., self.cap_n]
            rhs = -linear.cap_geq * v_prev
            if integrator != "backward-euler" and state is not None:
                rhs = rhs - state
            cap_vals = np.concatenate((rhs, -rhs), axis=-1)
            np.add.at(rflat, layout.sources[2], _per_row(cap_vals, m))

        base = linear.matrix if schedule is None else schedule.linear_data(linear)
        jac = np.empty((m, *base.shape))
        jac[:] = base
        jflat = jac.reshape(-1)
        groups = zip(self.fet_groups, layout.groups)
        for i, (group, (gather, sign)) in enumerate(groups):
            carried = None if linearized is None else linearized[i]
            if carried is not None:
                current, gm, gds = carried.reshape(3, -1)
            else:
                # The device sees flat (m * count,) biases: its math is
                # elementwise, and 1-D calls dispatch faster than (m, count).
                vd, vs, vg = xflat[gather]
                vgs = vg - vs
                vds = vd - vs
                if sign is not None:
                    vgs = sign * vgs
                    vds = sign * vds
                if variation is not None:
                    vgs = vgs - variation.vth_shift_v[:, group.columns].reshape(-1)
                current, gm, gds = group.device.linearize(vgs, vds)
                if linearized is not None:
                    linearized[i] = np.stack((current, gm, gds)).reshape(3, m, -1)
            if sign is not None:
                current = sign * current
            if variation is not None:
                scale = variation.drive_scale[:, group.columns].reshape(-1)
                current = current * scale
                gm = gm * scale
                gds = gds * scale
            residual_at = gather[:2].reshape(-1)  # drains, then sources
            np.add.at(rflat, residual_at, np.concatenate((current, -current)))
            triples = np.concatenate((gds, gm, gm + gds))
            if m > 1:
                # Each row's (gds, gm, gm + gds) triples in turn.
                triples = triples.reshape(3, m, -1).transpose(1, 0, 2).reshape(-1)
            pick, pick_sign, jacobian_at = layout.stamp(i, group)
            entries = triples[pick]
            entries *= pick_sign
            np.add.at(jflat, jacobian_at, entries)

        residual = rpad[:, :size]
        if isinstance(gmin, np.ndarray) or gmin > 0.0:
            # Only shunted rows are touched, so a row's arithmetic does
            # not depend on whether its neighbours carry a shunt.
            n_nodes = self.n_nodes
            gmin = np.broadcast_to(gmin, (m,))
            shunted = np.flatnonzero(gmin > 0.0)
            g = gmin[shunted, None]
            residual[shunted, :n_nodes] += g * x_stack[shunted, :n_nodes]
            if gmin_ref is not None:
                ref = np.broadcast_to(gmin_ref, (m, size))[shunted, :n_nodes]
                residual[shunted, :n_nodes] -= g * ref
            if schedule is not None:
                jac[shunted[:, None], schedule.node_diag_pos] += g
            else:
                np.einsum("ijj->ij", jac)[shunted, :n_nodes] += g
        return residual, jac

    # -- transient support ----------------------------------------------------------
    def cap_state_array(self, state: dict | None) -> np.ndarray:
        """Capacitor history currents as an array in ``cap_names`` order."""
        if not state:
            return np.zeros(len(self.cap_names))
        return np.array([state.get(name, 0.0) for name in self.cap_names])

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
        capacitor currents.  The time-step loop
        (:func:`repro.circuit.transient.march`) routes every accepted
        step through this method.
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
        """History-dict form of :meth:`cap_state_update` (in place)."""
        i_prev = self.cap_state_array(state) if integrator != "backward-euler" else None
        i_new = self.cap_state_update(
            np.append(x, 0.0), np.append(previous_x, 0.0), dt_s, integrator, i_prev
        )
        state.update(zip(self.cap_names, i_new.tolist()))
