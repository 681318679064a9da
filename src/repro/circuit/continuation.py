"""Adaptive DC continuation: structural seeding, one homotopy, diagnostics.

The fixed-schedule homotopies that used to live in ``solve_dc`` (one
hard-coded gmin ladder, one ten-point source ramp) failed beyond ~4
inverter stages and forced callers to hand-feed a structural ``x0``
guess.  This module replaces them with two pieces:

* :func:`structural_seed` — a logic-aware seeder that pins every node a
  voltage source determines, then propagates rail values through the
  netlist by treating FETs as switches (strongly-on devices short their
  drain to their source rail) and resistors as wires.  For CMOS-style
  logic — inverter chains, NAND/NOR stacks, ring oscillators — this
  reconstructs the alternating-rails operating-point structure that a
  cold ``x = 0`` start cannot see, so plain Newton usually converges
  immediately and no caller needs to pass ``x0`` any more.
* **Pseudo-transient continuation (PTC)** — the one fallback when plain
  Newton fails (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998): solve
  ``F(x) + alpha (x - x_k) = 0``, relaxing the damping conductance
  ``alpha`` toward zero on success and stiffening it on failure, so
  the iterates follow a damped startup transient into the DC
  solution.  The anchor term rides the solver's gmin stamp with a
  reference vector (``gmin_ref``), stamped by both the compiled plan
  and the reference evaluator.  SPICE pairs it with gmin and source
  stepping; here PTC alone converges every row of the ladder tests'
  hard spread that the three strategies together did, ~7x faster.

:func:`ladder_many` walks every row of a stack through Newton and then
PTC, each row on its own ``alpha``; :func:`solve_dc_robust` is its
one-row call.  Every Newton attempt is recorded in the row's
:class:`ConvergenceReport` (strategy, continuation parameter, iteration
count, final residual), so a failed solve raises
:class:`ConvergenceError` carrying the full history instead of a bare
message.
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
    "ptc_many",
    "solve_dc_robust",
    "structural_seed",
]

# pseudo-transient: starting damping conductance, escalation ceiling,
# and the value at which the damping is considered fully relaxed.
_PTC_ALPHA_START = 1e-3
_PTC_ALPHA_MAX = 1e3
_PTC_ALPHA_FLOOR = 1e-12

# Cap on PTC's Newton attempts — bounds a pathological walk.
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


def structural_seed(
    system: MNASystem,
    time_s: float | None = None,
    levels: np.ndarray | None = None,
) -> np.ndarray:
    """Logic-aware initial guess: propagate rail values through the netlist.

    Nodes pinned by voltage sources (at their waveforms' levels at
    ``time_s``, or their DC levels when ``None``) seed the propagation;
    FETs whose gate drive exceeds :data:`_SEED_ON_FRACTION` of the rail
    span act as closed switches copying the source rail onto an
    undriven drain, and resistors copy a known voltage onto an unknown
    neighbour.  Nodes the propagation cannot reach settle at mid-rail;
    branch currents start at zero.  ``levels`` replaces the waveforms: ``(n_vsources,)``
    source levels in circuit order give one seed, and an ``(m,
    n_vsources)`` stack of them (a DC sweep's rows) gives ``(m, size)``
    seeds, each the seed of its row alone.

    Rules fire in priority order — voltage sources (exact) > FET
    switches > resistor wires (both heuristic).  Sources are pinned to
    a fixpoint before any heuristic fires, the heuristics fire one
    assignment at a time (the first eligible FET in element order, else
    the first eligible resistor), and the sources are pinned again
    after each one: a source whose terminals only become known through
    propagation is still pinned exactly, never left at mid-rail.  A
    worklist drives this — a node → element adjacency built once per
    call, and a min-index heap per rule class fed only by the elements
    a newly known node touches — so a netlist of N nodes and E elements
    seeds in O((N + E) log E).
    """
    circuit = system.circuit
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
    signs = [_unwrap_polarity(el.device)[1] for el in fets]
    columns = [system.node_index(node) for node in circuit.node_names]

    def seed(row: list[float]) -> np.ndarray:
        """The seed at source levels ``row``."""
        known: dict[str, float] = {}

        def get(node: str) -> float | None:
            if node in GROUND_NAMES:
                return 0.0
            return known.get(node)

        # One min-index heap per rule class, fed by the elements a newly
        # known node touches; every entry is re-checked when popped.
        # Sources need no sweep order: build_system rejects source loops,
        # so they form a forest, and the first known node of a tree fixes
        # every other node's value along its one path from that node.
        source_heap = list(range(len(vsources)))  # sorted, so already a heap
        fet_heap: list[int] = []
        resistor_heap: list[int] = []
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
                i = heappop(source_heap)
                el = vsources[i]
                vp, vn = get(el.p), get(el.n)
                if vp is None and vn is not None:
                    put(el.p, vn + row[i])
                elif vn is None and vp is not None:
                    put(el.n, vp - row[i])

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
        x[columns] = [known.get(node, mid) for node in circuit.node_names]
        return x

    if levels is None:
        return seed([el.level(time_s) for el in vsources])
    levels = np.asarray(levels, dtype=float)
    if levels.ndim == 1:
        return seed(levels.tolist())
    return np.array([seed(row) for row in levels.tolist()])


class _Attempt(NamedTuple):
    """One PTC Newton attempt a row's walk asks for.

    ``alpha`` rides the gmin stamp, anchored at ``x_from``; the final
    ``alpha = 0`` attempt is plain Newton from ``x_from``.
    """

    alpha: float
    x_from: np.ndarray


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

    Each row tries plain Newton from its ``x0`` row and, if that fails,
    pseudo-transient continuation on its own ``alpha``.  A round is one
    :func:`~repro.circuit.solver.newton_many` call over the rows still
    walking, each at its own ``gmin`` and anchored at its own
    ``x_from``, so row ``i`` takes exactly the attempts a one-row call
    on it takes; with a ``variation`` its results are bitwise those of
    the one-row call.  ``eval_kwargs`` follow ``newton_many``; per-row
    values (``variation``, ``(m, size)`` ``previous_x``, ``(m,
    n_caps)`` ``state``) narrow with the walking rows.  Rows that
    converge on plain Newton cost no per-row Python work: their
    reports are built only when asked for.
    """
    x0 = np.asarray(x0, dtype=float)
    return ptc_many(plan, x0, newton_many(plan, x0, **eval_kwargs), **eval_kwargs)


def ptc_many(plan, x0: np.ndarray, first: NewtonRows, **eval_kwargs) -> LadderRows:
    """:func:`ladder_many` after its plain-Newton rung.

    ``first`` is every row's plain-Newton attempt from its ``x0`` row
    with these ``eval_kwargs``, as :func:`~repro.circuit.solver.newton_many`
    returns it (or as :func:`~repro.circuit.solver.settle_many` leaves
    the rows it did not settle); the rows it did not converge walk
    pseudo-transient continuation from their ``x0`` rows.  A caller that
    already holds ``first`` enters here and does not repeat it.
    """
    x, converged = first.x.copy(), first.converged.copy()
    reports: dict[int, ConvergenceReport] = {}
    walks: dict[int, tuple] = {}  # row -> (its walk, the attempt it asks next)
    for i in np.flatnonzero(~converged).tolist():
        reports[i] = ConvergenceReport()
        reports[i].record("newton", None, int(first.iterations[i]), first.norm[i], False)
        walk = _pseudo_transient(x0[i])
        walks[i] = (walk, next(walk))
    while walks:
        rows = np.fromiter(walks, dtype=np.intp, count=len(walks))
        attempts = [attempt for _, attempt in walks.values()]
        x_from = np.array([a.x_from for a in attempts])
        result = newton_many(
            plan,
            x_from,
            **take_rows(eval_kwargs, rows),
            gmin=np.array([a.alpha for a in attempts]),
            gmin_ref=x_from,
        )
        for k, (i, (walk, attempt)) in enumerate(list(walks.items())):
            ok = bool(result.converged[k])
            reports[i].record(
                "ptc", attempt.alpha, int(result.iterations[k]), result.norm[k], ok
            )
            try:
                walks[i] = (walk, walk.send((result.x[k], ok)))
            except StopIteration as done:
                del walks[i]
                x[i], converged[i] = done.value
                if converged[i]:
                    reports[i].converged, reports[i].strategy = True, "ptc"
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


def _pseudo_transient(seed: np.ndarray):
    """A row's walk after plain Newton failed; returns ``(x, converged)``.

    Pseudo-transient continuation relaxes F(x) + alpha (x - x_k) = 0:
    the walk yields the :class:`_Attempt` it needs next and receives
    that attempt's ``(x, converged)``.  The damping term anchors each
    solve at the previous pseudo-time point through the evaluator's
    ``gmin``/``gmin_ref`` stamp; ``alpha`` relaxes toward zero on
    success and stiffens on failure, like an adaptive implicit-Euler
    startup transient with node capacitors.
    """
    x = seed
    alpha = _PTC_ALPHA_START
    solves = 0
    while solves < _MAX_STAGE_SOLVES:
        x_try, ok = yield _Attempt(alpha, x)
        solves += 1
        if ok:
            moved = float(np.max(np.abs(x_try - x)))
            x = x_try
            if alpha <= _PTC_ALPHA_FLOOR:
                x_final, ok = yield _Attempt(0.0, x)
                return (x_final, True) if ok else (x, False)
            # Relax faster once the pseudo-transient has settled.
            alpha /= 4.0 if moved < 1e-6 else 2.0
        else:
            alpha *= 10.0
            if alpha > _PTC_ALPHA_MAX:
                return x, False
    return x, False
