"""Adaptive DC continuation: structural seeding, homotopy ladder, diagnostics.

The fixed-schedule homotopies that used to live in ``solve_dc`` (one
hard-coded gmin ladder, one ten-point source ramp) failed beyond ~4
inverter stages and forced callers to hand-feed a structural ``x0``
guess.  This module replaces them with a proper continuation subsystem:

* :func:`structural_seed` — a logic-aware seeder that pins every node a
  voltage source determines, then propagates rail values through the
  netlist by treating FETs as switches (strongly-on devices short their
  drain to their source rail) and resistors as wires.  For CMOS-style
  logic — inverter chains, NAND/NOR stacks, ring oscillators — this
  reconstructs the alternating-rails operating-point structure that a
  cold ``x = 0`` start cannot see, so plain Newton usually converges
  immediately and no caller needs to pass ``x0`` any more.
* **Adaptive gmin stepping** — instead of aborting when one step of a
  fixed schedule fails, the reduction factor backtracks (refines) on
  failure and accelerates after successes, so the ladder finds however
  many stages the circuit actually needs.
* **Adaptive source ramping** — the ramp step size halves on failure
  and grows on success, resolving sharp transfer-curve transitions a
  uniform ten-point ramp steps straight over.
* **Pseudo-transient continuation (PTC)** — the final fallback: solve
  ``F(x) + alpha (x - x_k) = 0``, relaxing the damping conductance
  ``alpha`` toward zero so the iterates follow a damped startup
  transient into the DC solution.  The anchor term rides the solver's
  gmin stamp with a reference vector (``gmin_ref``), stamped by both
  the compiled plan and the reference evaluator.

:func:`ladder_many` walks every row of a stack through the ladder on
its own continuation parameter; :func:`solve_dc_robust` is its one-row
call.  Every Newton attempt is recorded in the row's
:class:`ConvergenceReport` (strategy, continuation parameter, iteration
count, final residual), so a failed solve raises
:class:`ConvergenceError` carrying the full ladder history instead of a
bare message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from repro.circuit.assembly import _unwrap_polarity
from repro.circuit.elements import FET, GROUND_NAMES, Resistor, VoltageSource
from repro.circuit.netlist import CircuitError, MNASystem
from repro.circuit.solver import NewtonRows, newton_many, take_rows

__all__ = [
    "ConvergenceError",
    "ConvergenceReport",
    "LadderRows",
    "StageAttempt",
    "ladder_many",
    "solve_dc_robust",
    "structural_seed",
]

# gmin ladder: starting shunt conductance, escalation ceiling when even
# the start fails, and the value below which the shunt is dropped to 0.
_GMIN_START = 1e-2
_GMIN_MAX = 10.0
_GMIN_FLOOR = 1e-12
_GMIN_FACTOR_MAX = 100.0
_GMIN_FACTOR_MIN = 1.05

# source ramp: initial/maximum fractional step and the refinement floor.
_SOURCE_STEP_START = 0.1
_SOURCE_STEP_MAX = 0.25
_SOURCE_STEP_MIN = 1e-4

# pseudo-transient: starting damping conductance, escalation ceiling,
# and the value at which the damping is considered fully relaxed.
_PTC_ALPHA_START = 1e-3
_PTC_ALPHA_MAX = 1e3
_PTC_ALPHA_FLOOR = 1e-12

# Per-strategy cap on Newton attempts — bounds a pathological ladder.
_MAX_STAGE_SOLVES = 80

# Fraction of the rail span |vgs| must exceed for the structural seeder
# to call a FET "strongly on" and short its drain to the source rail.
_SEED_ON_FRACTION = 0.6


@dataclass(frozen=True)
class StageAttempt:
    """One recorded Newton attempt inside the continuation ladder."""

    stage: str
    parameter: float | None
    iterations: int
    residual: float
    converged: bool


@dataclass
class ConvergenceReport:
    """One row's ladder history, as :func:`ladder_many` recorded it."""

    attempts: list[StageAttempt] = field(default_factory=list)
    converged: bool = False
    strategy: str | None = None

    def record(
        self,
        stage: str,
        parameter: float | None,
        iterations: int,
        residual: float,
        converged: bool,
    ) -> None:
        self.attempts.append(
            StageAttempt(stage, parameter, iterations, float(residual), converged)
        )

    @property
    def total_iterations(self) -> int:
        return sum(attempt.iterations for attempt in self.attempts)

    @property
    def final_residual(self) -> float:
        return self.attempts[-1].residual if self.attempts else float("inf")

    @property
    def stages_used(self) -> tuple[str, ...]:
        seen: list[str] = []
        for attempt in self.attempts:
            if attempt.stage not in seen:
                seen.append(attempt.stage)
        return tuple(seen)

    def describe(self) -> str:
        """Multi-line summary: per-strategy attempts, iterations, residuals."""
        verdict = (
            f"converged via {self.strategy}" if self.converged else "FAILED"
        )
        lines = [
            f"DC continuation {verdict}: {len(self.attempts)} Newton attempts, "
            f"{self.total_iterations} iterations, "
            f"final residual {self.final_residual:.3e}"
        ]
        for stage in self.stages_used:
            attempts = [a for a in self.attempts if a.stage == stage]
            last = attempts[-1]
            parameter = (
                "" if last.parameter is None else f", last parameter {last.parameter:.3e}"
            )
            lines.append(
                f"  {stage}: {len(attempts)} attempts, "
                f"{sum(a.iterations for a in attempts)} iterations, "
                f"last residual {last.residual:.3e}{parameter}"
            )
        return "\n".join(lines)


class ConvergenceError(CircuitError):
    """A DC solve that exhausted the continuation ladder, with its report."""

    def __init__(self, message: str, report: ConvergenceReport):
        super().__init__(f"{message}\n{report.describe()}")
        self.report = report


def structural_seed(system: MNASystem, time_s: float | None = None) -> np.ndarray:
    """Logic-aware initial guess: propagate rail values through the netlist.

    Nodes pinned by voltage sources (evaluated at ``time_s``, or their DC
    level when ``None``) seed the propagation; FETs whose gate drive
    exceeds :data:`_SEED_ON_FRACTION` of the rail span act as closed
    switches copying the source rail onto an undriven drain, and
    resistors copy a known voltage onto an unknown neighbour.  Nodes the
    propagation cannot reach settle at mid-rail; branch currents start
    at zero.

    Rules fire in priority order — voltage sources (exact) > FET
    switches > resistor wires (both heuristic).  Sources are pinned to
    a fixpoint before any heuristic fires, the heuristics fire one
    assignment at a time (the first eligible FET in element order, else
    the first eligible resistor), and the sources are pinned again
    after each one: a source whose terminals only become known through
    propagation is still pinned exactly, never left at mid-rail.  A
    worklist drives this — a node → element adjacency built once, and a
    min-index heap per rule class fed only by the elements a newly
    known node touches — so a netlist of N nodes and E elements seeds
    in O((N + E) log E).
    """
    circuit = system.circuit
    known: dict[str, float] = {}

    def get(node: str) -> float | None:
        if node in GROUND_NAMES:
            return 0.0
        return known.get(node)

    vsources = [el for el in circuit.elements if isinstance(el, VoltageSource)]
    fets = [el for el in circuit.elements if isinstance(el, FET)]
    resistors = [el for el in circuit.elements if isinstance(el, Resistor)]
    source_at: dict[str, list[int]] = {}
    fet_at: dict[str, list[int]] = {}  # gate and source terminals only
    resistor_at: dict[str, list[int]] = {}
    for i, el in enumerate(vsources):
        for node in (el.p, el.n):
            source_at.setdefault(node, []).append(i)
    for i, el in enumerate(fets):
        for node in (el.gate, el.source):
            fet_at.setdefault(node, []).append(i)
    for i, el in enumerate(resistors):
        for node in (el.p, el.n):
            resistor_at.setdefault(node, []).append(i)

    # One min-index heap per rule class, fed by the elements a newly
    # known node touches; every entry is re-checked when popped.
    # Sources need no sweep order: build_system rejects source loops,
    # so they form a forest, and the first known node of a tree fixes
    # every other node's value along its one path from that node.
    source_heap = list(range(len(vsources)))  # sorted, so already a heap
    fet_heap: list[int] = []
    resistor_heap: list[int] = []
    signs = [_unwrap_polarity(el.device)[1] for el in fets]
    threshold = np.inf  # no FET switches until the exact rails are pinned

    def fet_ready(i: int) -> bool:
        el = fets[i]
        vg, vs = get(el.gate), get(el.source)
        if vg is None or vs is None:
            return False
        return signs[i] * (vg - vs) >= threshold

    def put(node: str, value: float) -> None:
        known[node] = float(value)
        for i in source_at.get(node, ()):
            heappush(source_heap, i)
        for i in fet_at.get(node, ()):
            if fet_ready(i):
                heappush(fet_heap, i)
        for i in resistor_at.get(node, ()):
            heappush(resistor_heap, i)

    def pin_sources() -> None:
        """Pin every node a source fixes from a known terminal."""
        while source_heap:
            el = vsources[heappop(source_heap)]
            vp, vn = get(el.p), get(el.n)
            if vp is None and vn is not None:
                put(el.p, vn + el.level(time_s))
            elif vn is None and vp is not None:
                put(el.n, vp - el.level(time_s))

    def switch() -> tuple[str, float] | None:
        """The first FET in element order that closes onto an unknown drain."""
        while fet_heap:
            el = fets[heappop(fet_heap)]
            vs = get(el.source)
            if vs is not None and get(el.drain) is None:
                return el.drain, vs
        return None

    def wire() -> tuple[str, float] | None:
        """The first resistor in element order with one known terminal."""
        while resistor_heap:
            el = resistors[heappop(resistor_heap)]
            vp, vn = get(el.p), get(el.n)
            if vp is None and vn is not None:
                return el.p, vn
            if vn is None and vp is not None:
                return el.n, vp
        return None

    pin_sources()
    rails = [0.0, *known.values()]
    v_lo, v_hi = min(rails), max(rails)
    span = v_hi - v_lo

    x = np.zeros(system.size)
    if span <= 0.0:
        for node, value in known.items():
            x[system.node_index(node)] = value
        return x

    threshold = _SEED_ON_FRACTION * span
    fet_heap = [i for i in range(len(fets)) if fet_ready(i)]
    resistor_heap = list(range(len(resistors)))
    while True:
        pin_sources()
        step = switch() or wire()
        if step is None:
            break
        put(*step)

    mid = v_lo + 0.5 * span
    for node in circuit.node_names:
        x[system.node_index(node)] = known.get(node, mid)
    return x


class _Attempt(NamedTuple):
    """One Newton attempt a row's ladder asks for."""

    stage: str
    parameter: float | None
    x_from: np.ndarray
    gmin: float = 0.0
    source_scale: float = 1.0
    anchored: bool = False  # PTC: the gmin shunt pulls toward ``x_from``


class LadderRows(NamedTuple):
    """Per-row outcome of :func:`ladder_many`."""

    x: np.ndarray  # (m, size) solutions, or each failed row's best iterate
    converged: np.ndarray  # (m,) bool
    first: NewtonRows  # every row's plain-Newton attempt
    reports: dict[int, ConvergenceReport]  # the rows that walked the ladder

    @property
    def entered(self) -> np.ndarray:
        """Rows whose plain Newton failed, so they walked the ladder."""
        return ~self.first.converged

    def report(self, i: int) -> ConvergenceReport:
        """Row ``i``'s ladder history (built on demand for plain-Newton rows)."""
        report = self.reports.get(i)
        if report is None:
            report = ConvergenceReport(converged=True, strategy="newton")
            report.record(
                "newton", None, int(self.first.iterations[i]), self.first.norm[i], True
            )
        return report


def ladder_many(plan, x0: np.ndarray, **eval_kwargs) -> LadderRows:
    """Continuation ladder on every row of the ``(m, size)`` stack ``x0``.

    Each row tries, in order: plain Newton from its ``x0`` row, adaptive
    gmin stepping, adaptive source ramping and pseudo-transient
    continuation, walking its own continuation parameter.  A round is
    one :func:`~repro.circuit.solver.newton_many` call over the rows
    still walking, each at its own ``gmin``/``source_scale`` (and PTC
    anchor), so row ``i`` takes exactly the attempts a one-row call on
    it takes; with a ``variation`` its results are bitwise those of the
    one-row call.  ``eval_kwargs`` follow ``newton_many``; per-row
    values (``variation``, ``(m, size)`` ``previous_x``, ``(m,
    n_caps)`` ``state``) narrow with the walking rows.  Rows that
    converge on plain Newton cost no per-row Python work: their
    reports are built only when asked for.
    """
    x0 = np.asarray(x0, dtype=float)
    first = newton_many(plan, x0, **eval_kwargs)
    x, converged = first.x.copy(), first.converged.copy()
    reports: dict[int, ConvergenceReport] = {}
    walks: dict[int, tuple] = {}  # row -> (its walk, the attempt it asks next)
    for i in np.flatnonzero(~converged).tolist():
        reports[i] = ConvergenceReport()
        reports[i].record("newton", None, int(first.iterations[i]), first.norm[i], False)
        walk = _walk(x0[i])
        walks[i] = (walk, next(walk))
    while walks:
        rows = np.fromiter(walks, dtype=np.intp, count=len(walks))
        attempts = [attempt for _, attempt in walks.values()]
        x_from = np.array([a.x_from for a in attempts])
        anchored = np.array([a.anchored for a in attempts])
        result = newton_many(
            plan,
            x_from,
            **take_rows(eval_kwargs, rows),
            gmin=np.array([a.gmin for a in attempts]),
            source_scale=np.array([a.source_scale for a in attempts]),
            gmin_ref=np.where(anchored[:, None], x_from, 0.0) if anchored.any() else None,
        )
        for k, (i, (walk, attempt)) in enumerate(list(walks.items())):
            ok = bool(result.converged[k])
            reports[i].record(
                attempt.stage, attempt.parameter, int(result.iterations[k]), result.norm[k], ok
            )
            try:
                walks[i] = (walk, walk.send((result.x[k], ok)))
            except StopIteration as done:
                del walks[i]
                x[i], converged[i] = done.value
                if converged[i]:
                    reports[i].converged, reports[i].strategy = True, attempt.stage
    return LadderRows(x, converged, first, reports)


def solve_dc_robust(
    system: MNASystem, x0: np.ndarray | None = None, **eval_kwargs
) -> tuple[np.ndarray, ConvergenceReport]:
    """DC solve through the continuation ladder; never raises.

    The one-row call of :func:`ladder_many`, from ``x0`` or the
    structural seed.  Returns the best iterate and the full
    :class:`ConvergenceReport`; check ``report.converged``.
    """
    seed = (
        structural_seed(system, eval_kwargs.get("time_s"))
        if x0 is None
        else np.array(x0, dtype=float)
    )
    rows = ladder_many(system._plan, seed[None], **eval_kwargs)
    return rows.x[0], rows.report(0)


# Each strategy below is one row's walk: it yields the :class:`_Attempt`
# it needs next and receives that attempt's ``(x, converged)``.


def _walk(seed: np.ndarray):
    """A row's ladder after plain Newton failed; returns ``(x, converged)``."""
    for strategy in (_gmin_stepping, _source_ramping, _pseudo_transient):
        x, ok = yield from strategy(seed)
        if ok:
            break
    return x, ok


def _gmin_stepping(seed: np.ndarray):
    """Adaptive gmin ladder: backtrack and refine the schedule on failure."""
    x = seed
    gmin = _GMIN_START
    solves = 0
    # Anchor the ladder: escalate gmin until Newton lands somewhere.
    while True:
        x_try, ok = yield _Attempt("gmin", gmin, x, gmin=gmin)
        solves += 1
        if ok:
            x = x_try
            break
        gmin *= 100.0
        if gmin > _GMIN_MAX or solves >= _MAX_STAGE_SOLVES:
            return x, False

    factor = 10.0
    while gmin > _GMIN_FLOOR and solves < _MAX_STAGE_SOLVES:
        x_try, ok = yield _Attempt("gmin", gmin / factor, x, gmin=gmin / factor)
        solves += 1
        if ok:
            x, gmin = x_try, gmin / factor
            factor = min(factor * 2.0, _GMIN_FACTOR_MAX)
        else:
            factor = float(np.sqrt(factor))
            if factor < _GMIN_FACTOR_MIN:
                return x, False

    x_final, ok = yield _Attempt("gmin", 0.0, x)
    return (x_final, True) if ok else (x, False)


def _source_ramping(seed: np.ndarray):
    """Adaptive source ramp 0 -> 100 % with step refinement on failure."""
    x, ok = yield _Attempt("source", 0.0, np.zeros_like(seed), source_scale=0.0)
    if not ok:
        return x, False
    scale, step = 0.0, _SOURCE_STEP_START
    solves = 0
    while scale < 1.0 and solves < _MAX_STAGE_SOLVES:
        target = min(1.0, scale + step)
        x_try, ok = yield _Attempt("source", target, x, source_scale=target)
        solves += 1
        if ok:
            x, scale = x_try, target
            step = min(step * 1.7, _SOURCE_STEP_MAX)
        else:
            step *= 0.5
            if step < _SOURCE_STEP_MIN:
                return x, False
    return x, scale >= 1.0


def _pseudo_transient(seed: np.ndarray):
    """Pseudo-transient continuation: relax F(x) + alpha (x - x_k) = 0.

    The damping term anchors each solve at the previous pseudo-time
    point through the evaluator's ``gmin``/``gmin_ref`` stamp; ``alpha``
    relaxes toward zero on success and stiffens on failure, like an
    adaptive implicit-Euler startup transient with node capacitors.
    """
    x = seed
    alpha = _PTC_ALPHA_START
    solves = 0
    while solves < _MAX_STAGE_SOLVES:
        x_try, ok = yield _Attempt("ptc", alpha, x, gmin=alpha, anchored=True)
        solves += 1
        if ok:
            moved = float(np.max(np.abs(x_try - x)))
            x = x_try
            if alpha <= _PTC_ALPHA_FLOOR:
                x_final, ok = yield _Attempt("ptc", 0.0, x)
                return (x_final, True) if ok else (x, False)
            # Relax faster once the pseudo-transient has settled.
            alpha /= 4.0 if moved < 1e-6 else 2.0
        else:
            alpha *= 10.0
            if alpha > _PTC_ALPHA_MAX:
                return x, False
    return x, False
