"""A small SPICE-class circuit simulator (MNA + Newton + transient).

Built from scratch as the substrate for the paper's Fig. 2 inverter
study: netlist construction (:class:`Circuit`), DC operating point and
swept DC with continuation, trapezoidal/backward-Euler transient, and
the standard-cell inverter builder.

Cold-start DC robustness comes from the adaptive continuation
subsystem (:mod:`repro.circuit.continuation`): a logic-aware
structural seeder plus pseudo-transient continuation when plain
Newton fails, with every Newton attempt
recorded in a :class:`ConvergenceReport` — deep FET chains and ring
oscillators solve with no hand-fed initial guess, and failures raise
:class:`ConvergenceError` carrying the full ladder history.  The
ladder runs on stacks, so a scalar solve, a transient step rescue and
a Monte Carlo straggler take the same attempts.

Every analysis returns a :class:`Solution`: a stack of unknown vectors
plus the one :class:`SolutionLayout` that ``build_system()`` derives
from the netlist.  The seven result types (operating point, DC sweep,
transient, the two Monte Carlo results, AC and batched AC) are thin
subclasses, so ``voltage``, ``source_current`` and ``transfer`` behave
the same on all of them: every ground alias reads 0 V and an unknown
name raises :class:`UnknownName`, a ``CircuitError`` that is also a
``KeyError``.

Assembly architecture (see :mod:`repro.circuit.assembly`): at
``build_system()`` time the netlist is compiled into a stamp plan that
splits elements into a *linear* group (R, C companion models, V/I
sources) — collapsed into one constant matrix per ``(dt, integrator)``
key — and a *nonlinear* FET group linearized per Newton iteration
through batched :meth:`repro.devices.base.FETModel.linearize` calls (one
per device-model instance) and scattered with precomputed index arrays.
Systems below :data:`~repro.circuit.assembly.SPARSE_THRESHOLD` (128)
unknowns assemble dense Jacobians; larger systems assemble
``scipy.sparse`` CSR Jacobians on one canonical sparsity pattern whose
symbolic LU ordering is analyzed once and reused by every numeric
refactorization.  Every circuit compiles: an element type the plan does
not know raises ``UnsupportedElement`` at ``build_system()``, and a loop
made only of voltage sources raises :class:`VoltageSourceLoop` naming
its sources, both before any numerics.  The
original element-walking evaluator survives as
``MNASystem.evaluate_dense`` — the independent reference the
equivalence test suite holds the compiled path to (1e-12).  One stamp
kernel, ``StampPlan.evaluate_many``, serves every evaluation: a scalar
``MNASystem.evaluate`` is its one-row call, and the Newton line search
and the sweep engines stack their rows.

Many-instance work goes through the batched sweep engine
(:mod:`repro.circuit.sweep`): :class:`SweepPlan` chunks any
sweep-shaped computation over deterministic seed substreams (optionally
on a process pool); :class:`CircuitMonteCarlo` solves N
parameter-perturbed DC copies of one compiled circuit with stacked
Jacobians — dense ``(m, size, size)`` stacks through one batched
LAPACK Newton step, sparse plans as ``(m, nnz)`` CSR data stacks
factorized per instance against the plan's shared symbolic ordering —
with one batched ``linearize`` call per device group either way; and
:class:`CircuitTransientMC` extends
the same batched Newton through time-stepping — N instances marched in
lockstep over one shared ``(dt, integrator)`` grid, with the stacked
continuation ladder for the instances that fail a step — the substrate
for the paper's variability/yield statistics and delay/energy
distributions.
Waveforms are bitwise invariant to chunk size, instance order, and
serial vs. process-pool execution.

Small-signal AC (:mod:`repro.circuit.ac`) compiles onto the same
stamp plan: one linearization at the continuation-solved operating
point (analytic gm/gds through the device protocol), the capacitance
stamp as pattern-aligned data, and the frequency sweep as one kernel
per plan kind — a QZ reduction plus all-frequency triangular
backsubstitution dense, numeric-only complex refactorization sparse.
:func:`ac_monte_carlo` runs every :class:`CircuitMonteCarlo` corner
through the same kernel for variation-aware frequency responses
(:class:`BatchedACResult`).

Fault tolerance (:mod:`repro.circuit.resilience`): every sweep runs
its chunks through one supervisor, and one optional
:class:`ExecutionPolicy` says how — pool size (``workers``),
``chunk_size`` and an optional ``checkpoint_root`` for chunk-granular
kill-and-resume.  A worker crash breaks the pool; the pool is rebuilt
and the unfinished chunks resubmitted, and a chunk charged with three
breakages runs in-process as the last rung.  A chunk that raises or
returns a malformed payload fails at once.  Because chunk substreams
are position-keyed, a resubmitted, degraded, or resumed chunk
reproduces the pooled original bitwise; every run yields a
:class:`RunReport` (per-chunk status, attempts, failure taxonomy), and
irrecoverable runs raise :class:`SweepExecutionError` carrying the
report plus salvaged partial results.
"""

from repro.circuit.ac import (
    ACPlan,
    ACResult,
    BatchedACResult,
    ac_analysis,
    ac_monte_carlo,
)
from repro.circuit.continuation import (
    ConvergenceError,
    ConvergenceReport,
    solve_dc_robust,
    structural_seed,
)
from repro.circuit.cells import (
    InverterCell,
    build_inverter,
    inverter_vtc,
)
from repro.circuit.dc import OperatingPointResult, SweepResult, dc_sweep, operating_point
from repro.circuit.netlist import (
    Circuit,
    CircuitError,
    Solution,
    SolutionLayout,
    UnknownName,
    VoltageSourceLoop,
)
from repro.circuit.resilience import (
    CheckpointStore,
    ExecutionPolicy,
    RunReport,
    SweepExecutionError,
)
from repro.circuit.sweep import (
    CircuitMonteCarlo,
    CircuitTransientMC,
    FETVariation,
    MonteCarloResult,
    ScaledShiftedFET,
    SweepPlan,
    TransientMCResult,
    perturbed_circuit,
)
from repro.circuit.transient import TransientResult, transient
from repro.circuit.waveforms import DC, Pulse

__all__ = [
    "ACPlan",
    "ACResult",
    "BatchedACResult",
    "Circuit",
    "CircuitError",
    "CheckpointStore",
    "CircuitMonteCarlo",
    "CircuitTransientMC",
    "ConvergenceError",
    "ConvergenceReport",
    "DC",
    "ExecutionPolicy",
    "FETVariation",
    "InverterCell",
    "MonteCarloResult",
    "OperatingPointResult",
    "Pulse",
    "RunReport",
    "ScaledShiftedFET",
    "SweepExecutionError",
    "SweepPlan",
    "Solution",
    "SolutionLayout",
    "SweepResult",
    "TransientMCResult",
    "TransientResult",
    "UnknownName",
    "VoltageSourceLoop",
    "ac_analysis",
    "ac_monte_carlo",
    "build_inverter",
    "dc_sweep",
    "inverter_vtc",
    "operating_point",
    "perturbed_circuit",
    "solve_dc_robust",
    "structural_seed",
    "transient",
]
