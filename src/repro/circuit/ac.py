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
``data`` combination.  The pre-compile per-frequency dense loop
survives verbatim as :func:`dense_frequency_loop`: it is the reference
the equivalence suite and the AC benchmarks pin the compiled sweep
against.

:func:`ac_monte_carlo` pushes the sweep to process corners: batched
operating points from :class:`~repro.circuit.sweep.CircuitMonteCarlo`
feed one stacked linearization
(:meth:`~repro.circuit.sweep._BatchedNewtonEngine.small_signal_jacobians`),
each corner's grid solves as a ``(chunk, size, size)`` stacked complex
LAPACK solve (dense) or pattern refactorization (sparse), and every
corner's frequency response lands in a :class:`BatchedACResult` — the
variation-aware RF workload of ``experiments/rf_comparison.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.linalg import qz

from repro.circuit.elements import VoltageSource
from repro.circuit.netlist import Circuit, CircuitError
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

# Frequencies per stacked complex solve in the dense batched-corner
# path: bounds the (chunk, size, size) complex working set without
# changing results — every frequency's solve is independent, so
# chunking is bitwise-neutral (asserted by the hypothesis invariance
# suite).
DEFAULT_FREQUENCY_CHUNK = 64

# Row-block size of the generalized-Schur backsubstitution: cross-block
# updates run as one stacked BLAS product per block instead of one
# vector op per row.  Purely a constant-factor knob — results do not
# depend on it.
SCHUR_BLOCK = 32


def _validate_frequencies(frequencies_hz) -> np.ndarray:
    """The boundary check of every AC entry point.

    Rejects empty, non-positive, non-finite and unsorted grids:
    :meth:`ACResult.unity_gain_frequency_hz` interpolates along an
    ascending axis, so a shuffled grid would silently fabricate
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


def _unity_gain_crossing(
    frequencies: np.ndarray, magnitude: np.ndarray
) -> float | None:
    """Log-log interpolated falling unity crossing of one |H| trace.

    Only genuine falling edges count (above at i-1, below at i, no
    wrap-around); returns None when the trace never crosses.  Shared by
    the scalar raise-on-missing accessor and the batched NaN-on-missing
    one, so both report the identical interpolated value.
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
class ACResult:
    """Frequency response of every node to the unit AC excitation."""

    frequencies_hz: np.ndarray
    voltages: dict[str, np.ndarray]

    def transfer(self, node: str) -> np.ndarray:
        """Complex transfer function H(f) at a node."""
        try:
            return self.voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.clip(np.abs(self.transfer(node)), 1e-300, None))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.transfer(node)))

    def unity_gain_frequency_hz(self, node: str) -> float:
        """First frequency where |H| falls to 1 (interpolated on log f).

        Only genuine falling edges count: a sweep that *starts* below
        unity (e.g. a band-pass response) contributes no crossing at
        its first point, and a response that is still above unity at
        the last point does not wrap around to fabricate one.
        """
        magnitude = np.abs(self.transfer(node))
        crossing = _unity_gain_crossing(self.frequencies_hz, magnitude)
        if crossing is None:
            if not (magnitude >= 1.0).any():
                raise CircuitError("response never reaches unity in the swept range")
            raise CircuitError("response never crosses unity in the swept range")
        return crossing


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


def _sweep_dense(
    conductance: np.ndarray,
    capacitance: np.ndarray,
    rhs: np.ndarray,
    frequencies: np.ndarray,
    chunk_size: int,
) -> np.ndarray:
    """Stacked complex solves: ``(chunk, size, size)`` batched LAPACK.

    The batched-corner kernel (:func:`ac_monte_carlo`): each corner has
    its own G, so there is nothing to pre-factor — instead each chunk
    assembles its matrices in one broadcast and solves them in one
    gufunc call (LAPACK ``zgesv`` per stack member), so the
    python-level cost is per chunk, not per frequency.  Chunking only
    bounds the complex working set — member solves are independent, so
    the samples are bitwise identical for every chunk size.
    """
    samples = np.empty((frequencies.size, conductance.shape[0]), dtype=complex)
    b = rhs.astype(complex)[None, :, None]
    for start in range(0, frequencies.size, chunk_size):
        omega = 2j * np.pi * frequencies[start : start + chunk_size]
        matrices = conductance + omega[:, None, None] * capacitance
        samples[start : start + omega.size] = np.linalg.solve(matrices, b)[..., 0]
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
        self.source = _find_source(circuit, source_name)
        self.size = self.system.size
        plan = self.system._plan
        x_dc, conductance = operating_point(self.system)
        self.x_dc = x_dc
        self._schedule = plan.sparse_schedule
        if sparse.issparse(conductance):
            # Canonical-pattern data vectors: G + jwC is elementwise.
            self._conductance_data: np.ndarray | None = np.asarray(conductance.data)
            self._conductance: np.ndarray | None = None
            self._capacitance: np.ndarray | None = None
            self._capacitance_data: np.ndarray | None = plan.capacitance_stamp()
        else:
            self._conductance = np.asarray(conductance)
            self._conductance_data = None
            self._capacitance_data = None
            self._capacitance = plan.capacitance_stamp()
        rhs = np.zeros(self.size)
        rhs[self.source.branch_index] = 1.0
        self.rhs = rhs
        self._schur: tuple[np.ndarray, ...] | None = None
        self._node_columns = {
            node: self.system.node_index(node) for node in circuit.node_names
        }

    @property
    def use_sparse(self) -> bool:
        """Whether sweeps refactorize on the canonical sparse pattern."""
        return self._conductance_data is not None

    def sweep(self, frequencies_hz) -> ACResult:
        """Swept response to the unit excitation on the plan's source."""
        frequencies = _validate_frequencies(frequencies_hz)
        samples = self.sweep_samples(frequencies)
        voltages = {
            node: samples[:, column]
            for node, column in self._node_columns.items()
        }
        return ACResult(frequencies_hz=frequencies, voltages=voltages)

    def sweep_samples(self, frequencies: np.ndarray) -> np.ndarray:
        """Raw ``(n_freq, size)`` complex solution stack (validated grid)."""
        if self.use_sparse:
            return _sweep_sparse(
                self._schedule,
                self._conductance_data,
                self._capacitance_data,
                self.rhs,
                frequencies,
            )
        if self._schur is None:
            self._schur = _schur_reduce(
                self._conductance, self._capacitance, self.rhs
            )
        return _sweep_schur(*self._schur, frequencies)

    def dense_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Densified ``(G, C, rhs)`` of this plan's operating point.

        The inputs of :func:`dense_frequency_loop` — benchmarks time the
        per-frequency loop against :meth:`sweep` on this
        *identical* linearization, so the measured speedup is pure
        solve-path, not operating-point noise.
        """
        if self.use_sparse:
            return (
                self._schedule.matrix(self._conductance_data).toarray(),
                self._schedule.matrix(self._capacitance_data).toarray(),
                self.rhs.copy(),
            )
        return self._conductance.copy(), self._capacitance.copy(), self.rhs.copy()


def ac_analysis(circuit: Circuit, source_name: str, frequencies_hz) -> ACResult:
    """Swept small-signal analysis with a unit AC drive on ``source_name``.

    Routes through :class:`ACPlan`: one stamp-plan linearization,
    pattern-aligned capacitance data and a compiled frequency sweep,
    held by the equivalence suite to the per-frequency dense loop
    (:func:`dense_frequency_loop`) at 1e-9.
    """
    frequencies = _validate_frequencies(frequencies_hz)
    return ACPlan(circuit, source_name).sweep(frequencies)


# ---------------------------------------------------------------------------
# Batched AC over Monte-Carlo operating points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchedACResult:
    """Stacked frequency responses over Monte-Carlo process corners.

    ``samples[i]`` is corner ``i``'s ``(n_freq, size)`` complex response
    to the unit excitation; corners whose DC solve failed carry NaN
    rows (``converged[i]`` False) and drop out of the distribution
    helpers instead of poisoning them.
    """

    frequencies_hz: np.ndarray
    samples: np.ndarray
    converged: np.ndarray
    node_index: dict[str, int]

    @property
    def n_instances(self) -> int:
        return self.samples.shape[0]

    @property
    def n_converged(self) -> int:
        return int(np.count_nonzero(self.converged))

    def transfer(self, node: str) -> np.ndarray:
        """Per-corner complex transfer functions, shape ``(m, n_freq)``."""
        try:
            column = self.node_index[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None
        return self.samples[:, :, column]

    def instance(self, i: int) -> ACResult:
        """One corner's response as a scalar :class:`ACResult`."""
        voltages = {
            node: self.samples[i, :, column]
            for node, column in self.node_index.items()
        }
        return ACResult(frequencies_hz=self.frequencies_hz, voltages=voltages)

    def low_frequency_gain(self, node: str) -> np.ndarray:
        """|H| at the first swept frequency per corner (NaN if unconverged)."""
        return np.abs(self.transfer(node)[:, 0])

    def unity_gain_frequencies_hz(self, node: str) -> np.ndarray:
        """Per-corner falling-edge unity crossing; NaN where there is none.

        Unlike the scalar accessor this does not raise: a corner whose
        response never crosses unity (the paper's non-saturating
        devices) or whose DC solve failed reports NaN, so distribution
        consumers can summarise the crossings that exist.
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
    *,
    chunk_size: int | None = None,
) -> BatchedACResult:
    """Batched AC over process corners: variation-aware frequency response.

    Solves every corner's DC operating point through the batched Newton
    engine (:class:`~repro.circuit.sweep.CircuitMonteCarlo`),
    linearizes all corners in one stacked evaluation
    (:meth:`~repro.circuit.sweep._BatchedNewtonEngine.small_signal_jacobians`)
    and sweeps each corner's ``(G_i + j w C) x = b`` through the same
    compiled kernels as :class:`ACPlan` — the capacitance stamp is
    shared across corners because process variation perturbs the FETs
    only.  Results are bitwise invariant to frequency chunking and to
    corner (instance) order; unconverged corners yield NaN samples.
    """
    from repro.circuit.sweep import CircuitMonteCarlo

    frequencies = _validate_frequencies(frequencies_hz)
    chunk = DEFAULT_FREQUENCY_CHUNK if chunk_size is None else int(chunk_size)
    if chunk < 1:
        raise CircuitError(f"chunk_size must be >= 1, got {chunk_size}")
    engine = CircuitMonteCarlo(circuit)
    source = _find_source(circuit, source_name)
    corners = engine.run(variation)
    jacobians = engine.small_signal_jacobians(corners.x, variation)
    plan = engine.plan
    capacitance = plan.capacitance_stamp()
    rhs = np.zeros(plan.size)
    rhs[source.branch_index] = 1.0

    samples = np.full(
        (corners.n_instances, frequencies.size, plan.size), np.nan, dtype=complex
    )
    for i in range(corners.n_instances):
        if not corners.converged[i]:
            continue
        if plan.use_sparse:
            samples[i] = _sweep_sparse(
                plan.sparse_schedule, jacobians[i], capacitance, rhs, frequencies
            )
        else:
            samples[i] = _sweep_dense(
                jacobians[i], capacitance, rhs, frequencies, chunk
            )
    node_index = {
        node: engine.system.node_index(node) for node in circuit.node_names
    }
    return BatchedACResult(
        frequencies_hz=frequencies,
        samples=samples,
        converged=corners.converged.copy(),
        node_index=node_index,
    )


def _find_source(circuit: Circuit, name: str) -> VoltageSource:
    for element in circuit.elements:
        if isinstance(element, VoltageSource) and element.name == name:
            return element
    raise CircuitError(f"no voltage source named {name!r}")
