"""Compiled small-signal AC analysis: linearize once, sweep frequencies batched.

Linearises the circuit at its continuation-solved DC operating point —
the real Jacobian returned by the compiled stamp plan *is* the
small-signal conductance matrix G, FET gm/gds stamps included via the
device protocol's ``linearize`` (analytic where the model provides
derivatives) — adds the capacitors' jwC terms and solves

    (G + j 2 pi f C) x = b

for the whole frequency grid at once with a unit excitation on the
chosen source.  This powers the RF analysis of Section II: a FET
without current saturation has gds ~ gm at its operating point, so its
voltage gain (and with it f_max) collapses.

The compiled path (:class:`ACPlan`) performs exactly one linearization
per analysis and builds the capacitance stamp once as pattern-aligned
data (:meth:`~repro.circuit.assembly.StampPlan.capacitance_stamp`).
The sweep itself is compiled too.  In the dense regime the pencil
``(G, C)`` is reduced once to generalized Schur (QZ) form
``G = Q S Zh``, ``C = Q T Zh`` with S, T upper triangular, so every
frequency costs one *triangular* backsubstitution — O(size^2) instead
of the per-frequency O(size^3) LU — vectorised across the whole grid
with the omega-affine split ``(S + w T) y = S@y + w (T@y)`` so the
cross-row updates run as stacked BLAS products.  Above
``SPARSE_THRESHOLD`` the sweep is a complex numeric-only
refactorization per frequency against the plan's cached symbolic
ordering (:meth:`~repro.circuit.assembly._SparseSchedule.factor`) —
G and C share one canonical pattern, so each system is an elementwise
``data`` combination, factored with its columns in the fill-reducing
order SuperLU chose for that pattern (``A[:, argsort(perm_c)]``; on a
600-stage chain every frequency's factor holds 1.25x the pattern's
nonzeros).  The pre-compile per-frequency dense loop
survives verbatim as :func:`dense_frequency_loop`: it is the reference
the equivalence suite and the AC benchmarks pin the compiled sweep
against.

:func:`ac_monte_carlo` pushes the sweep to process corners: batched
operating points from :class:`~repro.circuit.sweep.CircuitMonteCarlo`
feed one stacked linearization
(:meth:`~repro.circuit.sweep._BatchedNewtonEngine.small_signal_jacobians`),
and each corner's grid runs through the same kernel as an
:class:`ACPlan` sweep — its own QZ reduction and the all-frequency
triangular backsubstitution (dense) or pattern refactorization
(sparse) — with no frequency chunking.  Every corner's frequency
response lands in a :class:`BatchedACResult` — the
variation-aware RF workload of ``experiments/rf_comparison.py``.  Both
results are :class:`~repro.circuit.netlist.Solution` stacks over the
system's layout: ``transfer`` reads any node or ground alias, and
``source_current`` any source's branch response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.linalg import qz

from repro.circuit.netlist import Circuit, CircuitError, EnsembleSolution, Solution
from repro.circuit.solver import operating_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports nothing here)
    from repro.circuit.sweep import FETVariation

__all__ = [
    "ACPlan",
    "ACResult",
    "BatchedACResult",
    "ac_analysis",
    "ac_monte_carlo",
    "dense_frequency_loop",
]

# Row-block size of the generalized-Schur backsubstitution: cross-block
# updates run as one stacked BLAS product per block instead of one
# vector op per row.  Purely a constant-factor knob — results do not
# depend on it.
SCHUR_BLOCK = 32


def _validate_frequencies(frequencies_hz) -> np.ndarray:
    """The boundary check of every AC entry point.

    Rejects empty, non-positive, non-finite and unsorted grids:
    :meth:`BatchedACResult.unity_gain_frequencies_hz` interpolates along
    an ascending axis, so a shuffled grid would silently fabricate
    crossings instead of failing loudly here.
    """
    frequencies = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise CircuitError("frequencies must be a non-empty 1-D grid")
    if np.any(frequencies <= 0.0) or not np.all(np.isfinite(frequencies)):
        raise CircuitError("frequencies must be positive and finite")
    if frequencies.size > 1 and np.any(np.diff(frequencies) <= 0.0):
        raise CircuitError(
            "frequencies must be strictly increasing "
            "(unity-gain extraction interpolates along an ascending grid)"
        )
    return frequencies


def _unit_drive(size: int, source) -> np.ndarray:
    """Right-hand side of the unit AC excitation on ``source``."""
    rhs = np.zeros(size)
    rhs[source.branch_index] = 1.0
    return rhs


def _unity_gain_crossing(
    frequencies: np.ndarray, magnitude: np.ndarray
) -> float | None:
    """Log-log interpolated falling unity crossing of one |H| trace.

    Only genuine falling edges count (above at i-1, below at i, no
    wrap-around): a sweep that *starts* below unity (e.g. a band-pass
    response) contributes no crossing at its first point, and a response
    still above unity at the last point does not wrap around to
    fabricate one.  Returns None when the trace never crosses.
    """
    above = magnitude >= 1.0
    falling = above[:-1] & ~above[1:]
    if not falling.any():
        return None
    idx = int(np.argmax(falling)) + 1
    f0, f1 = frequencies[idx - 1], frequencies[idx]
    m0, m1 = magnitude[idx - 1], magnitude[idx]
    t = (np.log10(m0)) / (np.log10(m0) - np.log10(m1))
    return float(10 ** (np.log10(f0) + t * (np.log10(f1) - np.log10(f0))))


@dataclass(frozen=True)
class ACResult(Solution):
    """Frequency response to the unit AC excitation.

    ``samples[k]`` is the response at ``frequencies_hz[k]``.
    """

    frequencies_hz: np.ndarray


# ---------------------------------------------------------------------------
# Sweep kernels: one operating point, a whole frequency grid.
# ---------------------------------------------------------------------------


def dense_frequency_loop(
    conductance: np.ndarray,
    capacitance: np.ndarray,
    rhs: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """The pre-compile AC inner loop: one dense complex solve per frequency.

    Kept verbatim as the pinned reference implementation — the
    equivalence suite holds the compiled kernels to it at 1e-9, and the
    AC benchmarks measure the compiled sweep against it on an identical
    linearization.
    """
    samples = np.empty((len(frequencies), conductance.shape[0]), dtype=complex)
    for i, frequency in enumerate(frequencies):
        matrix = conductance + 1j * 2.0 * np.pi * frequency * capacitance
        samples[i] = np.linalg.solve(matrix, rhs)
    return samples


def _schur_reduce(
    conductance: np.ndarray, capacitance: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-time QZ reduction of the pencil (G, C) for repeated AC solves.

    ``G = Q S Zh`` and ``C = Q T Zh`` with S, T upper triangular, so
    ``(G + w C) x = b`` becomes the *triangular* system
    ``(S + w T) y = Qh b`` with ``x = Z y`` — O(size^2) per frequency
    against the dense loop's O(size^3), paid for by one O(size^3)
    reduction per operating point.  Returns ``(S, T, Z^T, Qh b)``.
    A singular C (nodes without capacitors) is fine: QZ operates on the
    pencil, not on C alone.
    """
    s_tri, t_tri, q, z = qz(conductance, capacitance, output="complex")
    return s_tri, t_tri, z.T, q.conj().T @ rhs.astype(complex)


def _sweep_schur(
    s_tri: np.ndarray,
    t_tri: np.ndarray,
    z_t: np.ndarray,
    rhs_q: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """All-frequency triangular backsubstitution on the Schur pencil.

    Solves ``(S + w T) y = Qh b`` for every ``w = j 2 pi f`` at once,
    bottom-up in row blocks: the pencil is affine in ``w``, so the
    cross-block update ``(S + w T) @ y`` splits into ``S @ y`` and
    ``T @ y`` — two stacked BLAS products with ``w`` applied
    elementwise — and only the within-block recurrences run as
    per-row vector ops.  Working set is O(n_freq * size): no chunking
    needed, nothing for results to depend on.
    """
    omega = 2j * np.pi * frequencies
    n = s_tri.shape[0]
    y = np.empty((omega.size, n), dtype=complex)
    hi = n
    while hi > 0:
        lo = max(0, hi - SCHUR_BLOCK)
        if hi < n:
            tail = y[:, hi:]
            b_blk = rhs_q[lo:hi] - (
                tail @ s_tri[lo:hi, hi:].T
                + omega[:, None] * (tail @ t_tri[lo:hi, hi:].T)
            )
        else:
            b_blk = np.broadcast_to(rhs_q[lo:hi], (omega.size, hi - lo))
        for i in range(hi - 1, lo - 1, -1):
            partial = b_blk[:, i - lo]
            if i < hi - 1:
                solved = y[:, i + 1 : hi]
                partial = partial - (
                    solved @ s_tri[i, i + 1 : hi]
                    + omega * (solved @ t_tri[i, i + 1 : hi])
                )
            y[:, i] = partial / (s_tri[i, i] + omega * t_tri[i, i])
        hi = lo
    samples = y @ z_t
    if not np.all(np.isfinite(samples)):
        raise CircuitError("AC system is singular in the swept range")
    return samples


def _sweep_sparse(
    schedule,
    conductance_data: np.ndarray,
    capacitance_data: np.ndarray,
    rhs: np.ndarray,
    frequencies: np.ndarray,
) -> np.ndarray:
    """Complex numeric-only refactorization per frequency.

    G and C live on the plan's one canonical pattern, so each system
    is an elementwise ``data`` combination; the symbolic ordering is
    the schedule's cached one (computed once per plan), and each
    frequency pays only the numeric factorization — never a densify,
    never a re-analysis.
    """
    samples = np.empty((frequencies.size, schedule.size), dtype=complex)
    b = rhs.astype(complex)
    for i, frequency in enumerate(frequencies):
        data = conductance_data + (2j * np.pi * frequency) * capacitance_data
        solve = schedule.factor(data)
        if solve is None:
            raise CircuitError(f"AC system is singular at {frequency:g} Hz")
        samples[i] = solve(b)
    return samples


# ---------------------------------------------------------------------------
# The compiled plan: one linearization, many sweeps.
# ---------------------------------------------------------------------------


class ACPlan:
    """Compiled AC analysis of one circuit: linearize once, sweep many.

    Construction solves DC through the continuation ladder and captures
    the operating point's conductance matrix G straight from the
    compiled stamp plan's Jacobian
    (:func:`~repro.circuit.solver.operating_point` — FET stamps via the
    device protocol's ``linearize``, analytic gm/gds where the model
    provides them, no finite differencing in this module) plus the
    capacitance stamp C built once as pattern-aligned data.
    :meth:`sweep` is then reusable: every call solves
    ``(G + j 2 pi f C) x = b`` for a whole grid.  Below
    ``SPARSE_THRESHOLD`` the pencil (G, C) is QZ-reduced once (lazily,
    cached) and each sweep runs the all-frequency triangular
    backsubstitution (:func:`_sweep_schur`) — O(size^2) per frequency;
    above it, per-frequency complex refactorization against the plan's
    cached symbolic ordering.
    """

    def __init__(self, circuit: Circuit, source_name: str):
        self.circuit = circuit
        self.system = circuit.build_system()
        self.source = circuit.source(source_name)
        self.size = self.system.size
        plan = self.system._plan
        x_dc, conductance = operating_point(self.system)
        self.x_dc = x_dc
        self._schedule = plan.sparse_schedule
        # The pencil (G, C) in the plan's own form: canonical-pattern
        # data vectors when sparse (G + jwC is elementwise), matrices
        # when dense.
        if sparse.issparse(conductance):
            conductance = conductance.data
        self._pencil = (np.asarray(conductance), plan.capacitance_stamp())
        self.rhs = _unit_drive(self.size, self.source)
        self._schur: tuple[np.ndarray, ...] | None = None

    @property
    def use_sparse(self) -> bool:
        """Whether sweeps refactorize on the canonical sparse pattern."""
        return self._schedule is not None

    def sweep(self, frequencies_hz) -> ACResult:
        """Swept response to the unit excitation on the plan's source."""
        frequencies = _validate_frequencies(frequencies_hz)
        return ACResult(
            self.system.layout,
            self.sweep_samples(frequencies),
            frequencies_hz=frequencies,
        )

    def sweep_samples(self, frequencies: np.ndarray) -> np.ndarray:
        """Raw ``(n_freq, size)`` complex solution stack (validated grid)."""
        if self.use_sparse:
            return _sweep_sparse(self._schedule, *self._pencil, self.rhs, frequencies)
        if self._schur is None:
            self._schur = _schur_reduce(*self._pencil, self.rhs)
        return _sweep_schur(*self._schur, frequencies)

    def dense_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Densified ``(G, C, rhs)`` of this plan's operating point.

        The inputs of :func:`dense_frequency_loop` — benchmarks time the
        per-frequency loop against :meth:`sweep` on this
        *identical* linearization, so the measured speedup is pure
        solve-path, not operating-point noise.
        """
        if self.use_sparse:
            conductance, capacitance = (
                self._schedule.matrix(data).toarray() for data in self._pencil
            )
        else:
            conductance, capacitance = (matrix.copy() for matrix in self._pencil)
        return conductance, capacitance, self.rhs.copy()


def ac_analysis(circuit: Circuit, source_name: str, frequencies_hz) -> ACResult:
    """Swept small-signal analysis with a unit AC drive on ``source_name``.

    Routes through :class:`ACPlan`: one stamp-plan linearization,
    pattern-aligned capacitance data and a compiled frequency sweep,
    held by the equivalence suite to the per-frequency dense loop
    (:func:`dense_frequency_loop`) at 1e-9.
    """
    return ACPlan(circuit, source_name).sweep(frequencies_hz)


# ---------------------------------------------------------------------------
# Batched AC over Monte-Carlo operating points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchedACResult(EnsembleSolution):
    """Stacked frequency responses over Monte-Carlo process corners.

    ``samples[i]`` is corner ``i``'s ``(n_freq, size)`` complex response
    to the unit excitation; corners whose DC solve failed carry NaN
    rows (``converged[i]`` False) and drop out of the distribution
    helpers instead of poisoning them.
    """

    frequencies_hz: np.ndarray

    def instance(self, i: int) -> ACResult:
        """One corner's response as a scalar :class:`ACResult`."""
        return ACResult(
            self.layout, self.samples[i], frequencies_hz=self.frequencies_hz
        )

    def low_frequency_gain(self, node: str) -> np.ndarray:
        """|H| at the first swept frequency per corner (NaN if unconverged)."""
        return np.abs(self.transfer(node)[:, 0])

    def unity_gain_frequencies_hz(self, node: str) -> np.ndarray:
        """Per-corner falling-edge unity crossing; NaN where there is none.

        A corner whose response never crosses unity (the paper's
        non-saturating devices) or whose DC solve failed reports NaN, so
        distribution consumers can summarise the crossings that exist.
        """
        magnitudes = np.abs(self.transfer(node))
        out = np.full(self.n_instances, np.nan)
        for i in range(self.n_instances):
            if not self.converged[i]:
                continue
            crossing = _unity_gain_crossing(self.frequencies_hz, magnitudes[i])
            if crossing is not None:
                out[i] = crossing
        return out


def ac_monte_carlo(
    circuit: Circuit,
    source_name: str,
    frequencies_hz,
    variation: "FETVariation",
) -> BatchedACResult:
    """Batched AC over process corners: variation-aware frequency response.

    Solves every corner's DC operating point through the batched Newton
    engine (:class:`~repro.circuit.sweep.CircuitMonteCarlo`),
    linearizes all corners in one stacked evaluation
    (:meth:`~repro.circuit.sweep._BatchedNewtonEngine.small_signal_jacobians`)
    and sweeps each converged corner's ``(G_i + j w C) x = b`` through
    :class:`ACPlan`'s kernels: one QZ reduction and the all-frequency
    Schur backsubstitution per corner when dense, per-frequency
    refactorization when sparse.  The capacitance stamp is shared
    across corners because process variation perturbs the FETs only.
    Results are bitwise invariant to corner (instance) order;
    unconverged corners yield NaN samples.
    """
    from repro.circuit.sweep import CircuitMonteCarlo

    frequencies = _validate_frequencies(frequencies_hz)
    engine = CircuitMonteCarlo(circuit)
    source = circuit.source(source_name)
    corners = engine.run(variation)
    jacobians = engine.small_signal_jacobians(corners.x, variation)
    plan = engine.plan
    capacitance = plan.capacitance_stamp()
    rhs = _unit_drive(plan.size, source)

    samples = np.full(
        (corners.n_instances, frequencies.size, plan.size), np.nan, dtype=complex
    )
    for i in np.flatnonzero(corners.converged):
        if plan.use_sparse:
            samples[i] = _sweep_sparse(
                plan.sparse_schedule, jacobians[i], capacitance, rhs, frequencies
            )
        else:
            reduction = _schur_reduce(jacobians[i], capacitance, rhs)
            samples[i] = _sweep_schur(*reduction, frequencies)
    return BatchedACResult(
        engine.system.layout,
        samples,
        corners.converged.copy(),
        frequencies_hz=frequencies,
    )
