"""Batched sweep / Monte Carlo engine: many instances, one compiled plan.

The integration story of the paper (yield, variability, array-scale
statistics) needs the *same* computation repeated over many parameter-
perturbed instances — 10,000-device arrays, purity sweeps, corner
analyses, circuit Monte Carlo.  Before this module every such experiment
re-solved its instances one at a time in a Python loop, ignoring the
batched :meth:`repro.devices.base.FETModel.linearize` machinery the
compiled stamp plan already exposes.  Three layers fix that:

* :class:`SweepPlan` — a generic chunked map engine every sweep-shaped
  consumer routes through, the circuit engines included.  It chunks
  the instances and owns the randomness policy: deterministic
  substreams spawned from a single seed via
  :class:`numpy.random.SeedSequence`, assigned to instances in
  fixed-size *blocks* so results are bitwise identical across chunk
  sizes, worker counts, and serial vs. pooled execution.  Every run
  executes under the one supervisor,
  :func:`repro.circuit.resilience.run_supervised`, which validates
  chunks at the merge boundary and records a :class:`~repro.circuit.
  resilience.RunReport`; one :class:`~repro.circuit.resilience.
  ExecutionPolicy` says how it runs (``workers`` > 1 for a process
  pool, ``chunk_size``, ``checkpoint_root``).
* :class:`CircuitMonteCarlo` — the DC circuit engine.  It compiles a
  circuit's stamp plan **once** and solves N parameter-perturbed
  instances with the package's one continuation ladder,
  :func:`repro.circuit.continuation.ladder_many`, one row per
  instance: plain damped Newton
  (:func:`repro.circuit.solver.newton_many`) on stacked residuals and
  Jacobians (dense ``(m, size, size)``, or CSR ``data`` stacks ``(m,
  nnz)`` on the plan's canonical sparse pattern), every FET group's
  bias points across *all* instances batched into a single
  ``linearize`` call, and pseudo-transient continuation, still
  stacked, for the instances plain Newton leaves behind.
  Per-instance device-parameter arrays (:class:`FETVariation`:
  drive-strength scale and threshold shift) thread through without
  touching the device models.
* :class:`CircuitTransientMC` — the transient circuit engine.  It
  marches all N instances through one shared ``(dt, integrator)`` time
  grid in lockstep with the one time-step loop,
  :func:`repro.circuit.transient.march`.  The instances whose time
  step fails batched Newton walk the same stacked ladder, anchored at
  their previous solutions and companion state, instead of poisoning
  the rest of the batch.

Both engines return a :class:`~repro.circuit.netlist.EnsembleSolution`
(:class:`MonteCarloResult`, :class:`TransientMCResult`): one row of
``samples`` per instance, named by the compiled system's layout.

Perturbation semantics: for a FET with unwrapped base model ``I_n`` and
polarity sign ``s`` (see ``assembly._unwrap_polarity``), instance ``i``
evaluates ``drive_scale[i] * s * I_n(s*vgs - vth_shift[i], s*vds)`` —
a multiplicative drive variation (tube count / mobility) plus a shift
of the underlying n-type threshold, both of which preserve the shared
sparsity structure and the batched linearize call.  The scalar
reference of those semantics is :class:`ScaledShiftedFET` /
:func:`perturbed_circuit`, used by the equivalence test suites.

Determinism contract: every batched arithmetic step is elementwise per
instance (batched gemv for the linear residual, per-matrix LAPACK
``gesv`` or per-instance sparse LU against one shared symbolic
ordering, elementwise device math, per-row scatters), so results are
**bitwise invariant** to chunk size, instance order, and serial vs.
process-pool execution — for dense and sparse plans alike.  The
per-instance scalar loop the engines replace lives in the test suite
(``tests/circuit/scalar_oracle.py``), the reference side of the
equivalence suites and benchmarks.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.circuit.assembly import UnsupportedElement, _unwrap_polarity
from repro.circuit.continuation import ladder_many, structural_seed
from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit, EnsembleSolution
from repro.circuit.resilience import ExecutionPolicy, run_supervised
from repro.circuit.solver import solve_dc
from repro.circuit.transient import TransientResult, march, validate_grid
from repro.devices.base import FETModel, PType

__all__ = [
    "SweepPlan",
    "ExecutionPolicy",
    "FETVariation",
    "CircuitMonteCarlo",
    "CircuitTransientMC",
    "MonteCarloResult",
    "TransientMCResult",
    "ScaledShiftedFET",
    "perturbed_circuit",
    "DEFAULT_SUBSTREAM_BLOCK",
    "ensure_seed",
    "lognormal_unit_mean",
]

# Instances per spawned random substream.  Randomness is tied to the
# (instance index // block) position, never to the execution chunking,
# so any chunk size / worker count replays the identical draws.
DEFAULT_SUBSTREAM_BLOCK = 256

# Default execution chunk (and therefore batch width) of the circuit
# Monte Carlo engines: wide enough to amortize the per-Newton-iteration
# Python overhead, small enough to keep the stacked Jacobians in cache.
DEFAULT_CIRCUIT_CHUNK = 1024


def _as_blocks(n: int, block: int) -> list[tuple[int, int]]:
    """[start, stop) index ranges of consecutive instance blocks."""
    return [(start, min(start + block, n)) for start in range(0, n, block)]


def lognormal_unit_mean(rng: np.random.Generator, sigma: float, size) -> np.ndarray:
    """Lognormal draws with mean 1 and *linear* coefficient of variation sigma.

    The one parameterization shared by every variability model in the
    package (tube on-currents, FET drive scales): ``log_sigma =
    sqrt(log1p(sigma^2))`` with the mean-compensating ``-log_sigma^2/2``
    shift, so multiplying a nominal value by a draw preserves its mean.
    """
    log_sigma = float(np.sqrt(np.log1p(sigma**2)))
    return rng.lognormal(mean=-0.5 * log_sigma**2, sigma=log_sigma, size=size)


def ensure_seed(seed: int | None) -> int:
    """``seed`` unchanged, or fresh OS entropy when None.

    Monte-Carlo consumers whose kernels require randomness call this so
    an unseeded run still flows through the one-root-seed substream
    scheme (and therefore still reproduces across chunking/pooling
    within the run).
    """
    if seed is not None:
        return seed
    # The one sanctioned entropy draw in the package: callers that opt
    # out of reproducibility-across-runs still get a concrete root seed,
    # so chunking/pool invariance holds *within* the run.
    # repro-lint: ok[RNG002] -- documented entropy boundary; every library path routes here
    return int(np.random.SeedSequence().generate_state(1)[0])


def _run_chunk(spec):
    """Execute one chunk of blocks (top-level so process pools can pickle it)."""
    kernel, vectorized, payload, blocks = spec
    results: list = []
    for params, seed_seq in blocks:
        rng = None if seed_seq is None else np.random.default_rng(seed_seq)
        if vectorized:
            results.extend(kernel(params, rng, payload))
        else:
            results.append(kernel(params, rng, payload))
    return results


class SweepPlan:
    """A compiled sweep: one kernel plus chunked, substreamed execution.

    Parameters
    ----------
    kernel:
        ``vectorized=False`` (default): called once per instance as
        ``kernel(params_i, rng_i, payload)`` with a private
        :class:`numpy.random.Generator` spawned for that instance (or
        ``None`` when the run is unseeded).
        ``vectorized=True``: called once per substream *block* as
        ``kernel(params_block, rng_block, payload)`` and must return a
        sequence with one entry per instance of the block.
    vectorized:
        Selects the kernel contract above.
    payload:
        Constant context handed to every kernel call; must pickle when
        the policy runs a pool.
    substream_block:
        Instances per spawned substream in vectorized mode.  This is the
        randomness *and* batching granularity: results are independent
        of the policy's ``chunk_size`` and ``workers`` because kernels
        always see whole blocks.
    validate:
        Optional per-entry schema check applied by the supervisor
        before a chunk's results may merge.

    ``run`` executes the kernel over a parameter sequence under the
    supervisor and returns the per-instance results in input order.
    """

    def __init__(
        self,
        kernel,
        *,
        vectorized: bool = False,
        payload=None,
        substream_block: int = DEFAULT_SUBSTREAM_BLOCK,
        validate=None,
    ):
        if substream_block < 1:
            raise ValueError(f"substream block must be >= 1, got {substream_block}")
        self.kernel = kernel
        self.vectorized = vectorized
        self.payload = payload
        self.substream_block = substream_block
        self.validate = validate

    def _prepare(self, params, seed, policy: ExecutionPolicy):
        """Chunk ``params`` into pool specs; ``(specs, counts)``.

        ``counts[k]`` is the number of per-instance results chunk ``k``
        must return — the structural schema enforced at the supervised
        merge boundary.
        """
        n = len(params)
        root = None
        if seed is not None:
            root = (
                seed
                if isinstance(seed, np.random.SeedSequence)
                else np.random.SeedSequence(seed)
            )
        if self.vectorized:
            ranges = _as_blocks(n, self.substream_block)
            seqs = root.spawn(len(ranges)) if root is not None else [None] * len(ranges)
            blocks = [
                (params[start:stop], seq) for (start, stop), seq in zip(ranges, seqs)
            ]
            sizes = [stop - start for start, stop in ranges]
        else:
            seqs = root.spawn(n) if root is not None else [None] * n
            blocks = list(zip(params, seqs))
            sizes = [1] * n

        workers, chunk_size = policy.workers, policy.chunk_size
        use_pool = workers is not None and workers > 1 and len(blocks) > 1
        if chunk_size is None:
            # Pooled runs need more than one chunk to parallelise: split
            # the blocks evenly across the workers by default.
            per_chunk = max(1, -(-len(blocks) // workers) if use_pool else len(blocks))
        else:
            per_chunk = (
                max(1, chunk_size // self.substream_block)
                if self.vectorized
                else chunk_size
            )
        specs = [
            (self.kernel, self.vectorized, self.payload, blocks[i : i + per_chunk])
            for i in range(0, len(blocks), per_chunk)
        ]
        counts = [
            sum(sizes[i : i + per_chunk])
            for i in range(0, len(sizes), per_chunk)
        ]
        return specs, counts

    def run(
        self,
        params,
        *,
        seed: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> list:
        """Map the kernel over ``params``; results keep the input order.

        ``seed`` (an int, or a pre-spawned
        :class:`numpy.random.SeedSequence` when a caller derives several
        independent sweeps from one user seed) derives one substream per
        instance (scalar kernels) or per block (vectorized kernels) via
        ``SeedSequence.spawn`` — the draws depend only on the instance
        position, never on the policy's ``chunk_size`` or ``workers``.
        ``policy.workers`` > 1 dispatches whole chunks to a process pool
        (kernel, params and payload must pickle).

        Every run executes under the fault-tolerant supervisor
        (:func:`repro.circuit.resilience.run_supervised`); ``policy``
        (``None`` means a default
        :class:`~repro.circuit.resilience.ExecutionPolicy`) sets the
        pool, the chunking and chunk-granular checkpoint/resume.  A
        chunk whose worker dies is resubmitted on a rebuilt pool and,
        after its pooled attempts, run in-process.  The run's
        :class:`~repro.circuit.resilience.RunReport` is appended to
        ``policy.reports``.  Results are bitwise identical on every
        rung — a chunk's output depends only on its spec, never on
        where or how often it executes.

        Raises :class:`~repro.circuit.resilience.SweepExecutionError`
        (report and salvaged chunks attached, chained from the failed
        chunk's last exception) if a chunk raises, returns a payload
        that fails the merge-boundary check, or fails in-process after
        its pooled attempts; such a chunk is not rerun.  Checkpoints
        are keyed by the chunk specs (kernel, payload, parameter rows,
        seed substreams), so resuming requires the same chunking; a
        changed input simply misses the cache and recomputes.
        """
        params = list(params)
        policy = ExecutionPolicy() if policy is None else policy
        specs, counts = self._prepare(params, seed, policy)
        return run_supervised(
            specs,
            chunk_fn=_run_chunk,
            expected_counts=counts,
            policy=policy,
            validate=self.validate,
        )


# ---------------------------------------------------------------------------
# Per-instance perturbations and their scalar reference semantics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FETVariation:
    """Per-instance, per-FET parameter perturbations for a circuit sweep.

    ``drive_scale[i, j]`` multiplies FET ``j``'s current (and small-
    signal conductances) in instance ``i`` — the tube-count / mobility
    variability channel.  ``vth_shift_v[i, j]`` shifts the *underlying
    n-type* model's threshold (a p-FET's shift is applied to its
    mirrored base model).  Columns follow the circuit's FET element
    order (``CircuitMonteCarlo.fet_names``).
    """

    drive_scale: np.ndarray
    vth_shift_v: np.ndarray

    def __post_init__(self) -> None:
        scale = np.asarray(self.drive_scale, dtype=float)
        shift = np.asarray(self.vth_shift_v, dtype=float)
        if scale.ndim != 2 or shift.shape != scale.shape:
            raise ValueError(
                "drive_scale and vth_shift_v must share one (n_instances, n_fets) shape"
            )
        object.__setattr__(self, "drive_scale", scale)
        object.__setattr__(self, "vth_shift_v", shift)

    @property
    def n_instances(self) -> int:
        return self.drive_scale.shape[0]

    @property
    def n_fets(self) -> int:
        return self.drive_scale.shape[1]

    def take(self, indices) -> "FETVariation":
        """Sub-variation at the given instance indices (order preserved)."""
        return FETVariation(
            drive_scale=self.drive_scale[indices],
            vth_shift_v=self.vth_shift_v[indices],
        )

    @classmethod
    def sample(
        cls,
        n_instances: int,
        n_fets: int,
        *,
        seed: int,
        drive_sigma: float = 0.1,
        vth_sigma_v: float = 0.0,
    ) -> "FETVariation":
        """Draw a lognormal-drive / normal-threshold variation.

        ``drive_sigma`` is the *linear* coefficient of variation: scales
        are lognormal with unit mean and relative spread ``drive_sigma``
        (same convention as
        :class:`repro.integration.variability.CNFETArrayModel`).  Draws
        come from one substream per block of
        :data:`DEFAULT_SUBSTREAM_BLOCK` instances, and never depend on
        how a later sweep is chunked or parallelised.  The threshold
        shifts come from a child of the block's substream, so for given
        ``n_fets`` and sigmas instance ``i``'s drive scales and shifts
        both depend only on ``(seed, i)``.
        """
        if n_instances < 1 or n_fets < 1:
            raise ValueError("need at least one instance and one FET")
        if drive_sigma < 0.0 or vth_sigma_v < 0.0:
            raise ValueError("sigmas must be >= 0")
        scale = np.empty((n_instances, n_fets))
        shift = np.empty((n_instances, n_fets))
        ranges = _as_blocks(n_instances, DEFAULT_SUBSTREAM_BLOCK)
        for (start, stop), seq in zip(
            ranges, np.random.SeedSequence(seed).spawn(len(ranges))
        ):
            rng = np.random.default_rng(seq)
            count = stop - start
            if drive_sigma > 0.0:
                scale[start:stop] = lognormal_unit_mean(
                    rng, drive_sigma, (count, n_fets)
                )
            else:
                scale[start:stop] = 1.0
            if vth_sigma_v > 0.0:
                shift[start:stop] = np.random.default_rng(seq.spawn(1)[0]).normal(
                    0.0, vth_sigma_v, size=(count, n_fets)
                )
            else:
                shift[start:stop] = 0.0
        return cls(drive_scale=scale, vth_shift_v=shift)

    @classmethod
    def nominal(cls, n_instances: int, n_fets: int) -> "FETVariation":
        """The identity variation (all scales 1, all shifts 0)."""
        return cls(
            drive_scale=np.ones((n_instances, n_fets)),
            vth_shift_v=np.zeros((n_instances, n_fets)),
        )


class ScaledShiftedFET(FETModel):
    """``scale * I_base(vgs - shift, vds)`` — FETVariation's scalar reference.

    The multiplication/subtraction order matches the batched engines'
    arithmetic exactly, so a circuit rebuilt from these wrappers (see
    :func:`perturbed_circuit`) evaluates bitwise-identically to the
    corresponding batch row: the reference side of the equivalence
    tests.
    """

    def __init__(self, base: FETModel, drive_scale: float, vth_shift_v: float):
        self.base = base
        self.drive_scale = float(drive_scale)
        self.vth_shift_v = float(vth_shift_v)

    def current(self, vgs: float, vds: float) -> float:
        return self.drive_scale * self.base.current(vgs - self.vth_shift_v, vds)

    # repro-lint: ok[PRT001] -- variation adapter: scales/shifts the base model, which owns the mirror transform
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        return self.drive_scale * self.base.currents(
            np.asarray(vgs_values, dtype=float) - self.vth_shift_v, vds_values
        )

    def linearize(self, vgs_values, vds_values):
        current, gm, gds = self.base.linearize(
            np.asarray(vgs_values, dtype=float) - self.vth_shift_v, vds_values
        )
        return (
            current * self.drive_scale,
            gm * self.drive_scale,
            gds * self.drive_scale,
        )


def perturbed_circuit(
    circuit: Circuit, variation: FETVariation, instance: int
) -> Circuit:
    """Clone ``circuit`` with one instance's variation baked into its FETs.

    Every FET's device is unwrapped to its base n-type model, wrapped in
    a :class:`ScaledShiftedFET` carrying that FET's ``(drive_scale,
    vth_shift)`` for ``instance``, and re-mirrored when the original was
    p-type.  Elements are re-added in the original order, so the clone's
    unknown-vector layout (node and branch indices) is identical — its
    scalar solutions are directly comparable to the batch rows.
    """
    fets = [el for el in circuit.elements if isinstance(el, FET)]
    if variation.n_fets != len(fets):
        raise ValueError(
            f"variation has {variation.n_fets} FET columns, "
            f"circuit has {len(fets)} FETs"
        )
    column = {id(el): j for j, el in enumerate(fets)}
    clone = Circuit(f"{circuit.title}[{instance}]")
    for el in circuit.elements:
        if isinstance(el, FET):
            base, sign = _unwrap_polarity(el.device)
            j = column[id(el)]
            wrapped: FETModel = ScaledShiftedFET(
                base,
                variation.drive_scale[instance, j],
                variation.vth_shift_v[instance, j],
            )
            if sign < 0.0:
                wrapped = PType(wrapped)
            clone.add_fet(el.name, el.drain, el.gate, el.source, wrapped)
        elif isinstance(el, Resistor):
            clone.add_resistor(el.name, el.p, el.n, el.resistance_ohm)
        elif isinstance(el, Capacitor):
            clone.add_capacitor(el.name, el.p, el.n, el.capacitance_f)
        elif isinstance(el, VoltageSource):
            clone.add_voltage_source(el.name, el.p, el.n, el.waveform)
        elif isinstance(el, CurrentSource):
            clone.add_current_source(el.name, el.p, el.n, el.waveform)
        else:
            raise UnsupportedElement(
                f"cannot perturb element type {type(el).__name__}"
            )
    return clone


# ---------------------------------------------------------------------------
# Results of the circuit engines.
# ---------------------------------------------------------------------------


class MonteCarloResult(EnsembleSolution):
    """Stacked DC solutions of a circuit Monte Carlo run, one row per instance."""

    @property
    def x(self) -> np.ndarray:
        """The ``(n_instances, size)`` solutions (``samples``)."""
        return self.samples


@dataclass(frozen=True)
class TransientMCResult(EnsembleSolution):
    """Stacked transient sample trajectories of a circuit Monte Carlo run.

    ``samples[i, k]`` is instance ``i``'s full unknown vector at time
    sample ``k`` (``k = 0`` is the t=0 operating point).  ``fallback``
    marks instances that entered the continuation ladder because plain
    Newton failed, at t=0 or at a time step; ``converged`` is False
    only where the ladder failed too, in which case the instance's
    samples are NaN.
    """

    dt_s: float
    fallback: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def time_s(self) -> np.ndarray:
        """The shared time grid [s] (one row for every instance)."""
        return self.dt_s * np.arange(self.n_samples)

    def instance_waveforms(self, i: int) -> TransientResult:
        """One instance's trajectory as a scalar :class:`TransientResult`."""
        return TransientResult(self.layout, self.samples[i], time_s=self.time_s)


# ---------------------------------------------------------------------------
# Batched Newton over one compiled stamp plan (shared DC/transient core).
# ---------------------------------------------------------------------------


class _BatchedNewtonEngine:
    """Shared core of the circuit engines: one compiled plan, N instances.

    Owns the compiled stamp plan; every solve is one
    :func:`~repro.circuit.continuation.ladder_many` call with the
    instances' :class:`FETVariation` rows on that plan.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.system = circuit.build_system()
        self.plan = self.system._plan
        self.fets = tuple(el for el in circuit.elements if isinstance(el, FET))
        if not self.fets:
            raise ValueError("circuit has no FETs to perturb")
        self.fet_names = tuple(f.name for f in self.fets)

    def _check_variation(
        self, variation: FETVariation | None, n_instances: int | None
    ) -> FETVariation:
        if variation is None:
            if n_instances is None:
                raise ValueError("give a variation or n_instances")
            variation = FETVariation.nominal(n_instances, len(self.fets))
        if variation.n_fets != len(self.fets):
            raise ValueError(
                f"variation has {variation.n_fets} FET columns, "
                f"circuit has {len(self.fets)} FETs"
            )
        scale, shift = variation.drive_scale, variation.vth_shift_v
        bad = ~(np.isfinite(scale) & np.isfinite(shift) & (scale >= 0.0))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"variation instance {i}, FET {self.fet_names[j]!r}: "
                f"drive_scale {float(scale[i, j])} and "
                f"vth_shift_v {float(shift[i, j])} "
                "must be finite, with drive_scale >= 0"
            )
        return variation

    def __reduce__(self):
        # Pool workers rebuild the engine from its circuit (cached per
        # process) instead of unpickling the compiled plan.
        return _engine_from_pickle, (type(self), pickle.dumps(self.circuit))

    def _sweep(
        self,
        variation: FETVariation | None,
        n_instances: int | None,
        *,
        args: tuple,
        row_shape: tuple[int, ...],
        n_flags: int,
        policy: ExecutionPolicy | None,
    ) -> tuple[np.ndarray, ...]:
        """Run :meth:`_solve_chunk` over the instances under the supervisor.

        ``_solve_chunk(variation_block, *args)`` returns an
        ``(m, *row_shape)`` array and ``n_flags`` boolean vectors; the
        return value is the same stacked over all instances in input
        order (well-formed and empty for zero instances).  The sweep's
        parameters are instance indices; the engine and the variation
        ride in the payload, so nothing is pickled in-process and pool
        workers rebuild the engine once each.  Each chunk is one batch
        of ``policy.chunk_size`` instances (default
        :data:`DEFAULT_CIRCUIT_CHUNK`, or an even split across a pool).
        """
        variation = self._check_variation(variation, n_instances)
        n = variation.n_instances
        policy = ExecutionPolicy() if policy is None else policy
        chunk_size = policy.chunk_size
        if chunk_size is None:
            chunk_size = DEFAULT_CIRCUIT_CHUNK
            if policy.workers is not None and policy.workers > 1:
                # A pooled run needs at least one chunk per worker to
                # parallelise at all.
                chunk_size = max(1, min(chunk_size, -(-n // policy.workers)))
            # The copy shares ``reports`` with the caller's policy.
            policy = replace(policy, chunk_size=chunk_size)
        sweep = SweepPlan(
            _engine_chunk_kernel,
            vectorized=True,
            payload=(self, variation, args),
            substream_block=chunk_size,
            validate=_mc_entry_validator(row_shape, n_flags),
        )
        entries = sweep.run(range(n), policy=policy)
        stack = (
            np.array([entry[0] for entry in entries])
            if entries
            else np.empty((0, *row_shape))
        )
        flags = tuple(
            np.array([entry[k] for entry in entries], dtype=bool)
            for k in range(1, n_flags + 1)
        )
        return (stack, *flags)

    def small_signal_jacobians(
        self, x: np.ndarray, variation: FETVariation | None = None
    ) -> np.ndarray:
        """Stacked small-signal conductance matrices at solved corners.

        ``x`` is an ``(m, size)`` stack of operating points (typically
        ``MonteCarloResult.x``); the return value is the stack of MNA
        Jacobians dF/dx linearized there, each instance's
        drive-scale/threshold variation applied — exactly the per-row
        arithmetic of the batched Newton iteration, so row ``i`` equals
        the scalar plan's Jacobian on the corresponding perturbed
        circuit.  Dense plans return ``(m, size, size)`` matrices;
        sparse plans return ``(m, nnz)`` canonical-pattern CSR data
        (wrap rows with ``plan.sparse_schedule.matrix``).  Each row
        *is* the G of ``(G + j w C) x = b`` at that corner: this is
        the bridge batched AC rides over
        (:func:`repro.circuit.ac.ac_monte_carlo`).  Rows are
        elementwise independent, so the stack is bitwise invariant to
        instance order.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.plan.size:
            raise ValueError(
                f"operating points must be (m, {self.plan.size}), got {x.shape}"
            )
        variation = self._check_variation(variation, x.shape[0])
        if variation.n_instances != x.shape[0]:
            raise ValueError(
                f"variation has {variation.n_instances} instances, "
                f"operating-point stack has {x.shape[0]} rows"
            )
        _, jacobian = self.plan.evaluate_many(x, variation=variation)
        return jacobian


@lru_cache(maxsize=4)
def _engine_from_pickle(cls, circuit_bytes: bytes) -> _BatchedNewtonEngine:
    """Rebuild (and cache) an engine inside a pool worker process."""
    return cls(pickle.loads(circuit_bytes))


def _engine_chunk_kernel(indices, rng, payload):
    """SweepPlan kernel of both engines: solve one block of instances."""
    engine, variation, args = payload
    return list(zip(*engine._solve_chunk(variation.take(indices), *args)))


_FLAG_TYPES = frozenset({bool, np.bool_})


def _mc_entry_validator(row_shape: tuple[int, ...], n_flags: int):
    """Merge-boundary schema of one engine entry: ``(array, *flags)``.

    Applied by the supervisor before a chunk may merge, so a corrupt
    worker payload fails its chunk at the boundary instead of
    poisoning the stacked result.  NaN rows are legitimate
    (a transient instance the continuation ladder could not rescue), so
    only type and shape are checked.
    """
    width = 1 + n_flags

    def _valid(entry) -> bool:
        array = entry[0]
        return (
            len(entry) == width
            and isinstance(array, np.ndarray)
            and array.shape == row_shape
            and array.dtype.kind == "f"
            and _FLAG_TYPES.issuperset(map(type, entry[1:]))
        )

    return _valid


class CircuitMonteCarlo(_BatchedNewtonEngine):
    """Solve N parameter-perturbed DC instances of one compiled circuit.

    The stamp plan is compiled once; each chunk of instances is solved
    by a batched damped Newton iteration sharing the plan's constant
    linear matrix and FET-group index arrays.  Per-iteration work is
    one ``linearize`` call per device-model group (over *all* active
    instances' bias points at once) plus one batched LAPACK solve over
    the stacked Jacobians.  Convergence is judged per instance with the
    scalar solver's relative+absolute criterion; stragglers walk the
    stacked continuation ladder, each taking exactly the attempts
    :func:`~repro.circuit.continuation.solve_dc_robust` takes on it,
    and anything still unconverged is reported as such in
    :class:`MonteCarloResult` rather than raising.

    Sparse plans (``size >= SPARSE_THRESHOLD``) batch the same way:
    every instance shares the plan's canonical sparsity pattern, so the
    Jacobian stack is a ``(m, nnz)`` CSR ``data`` array and each Newton
    step refactorizes the active instances numerically against the
    plan's one-time symbolic ordering.
    """

    def __init__(self, circuit: Circuit):
        super().__init__(circuit)
        self._x_nominal: np.ndarray | None = None

    # -- public API -------------------------------------------------------------
    def nominal_solution(self) -> np.ndarray:
        """The unperturbed DC solution (cached); seeds every instance."""
        if self._x_nominal is None:
            self._x_nominal = solve_dc(self.system)
        return self._x_nominal

    def run(
        self,
        variation: FETVariation | None = None,
        *,
        n_instances: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> MonteCarloResult:
        """Solve all instances; returns stacked solutions in input order.

        ``policy`` (an :class:`~repro.circuit.resilience.
        ExecutionPolicy`) sets the batch width ``chunk_size`` (default
        :data:`DEFAULT_CIRCUIT_CHUNK`) and ``workers`` > 1 ships chunks
        to a process pool (workers rebuild and cache the compiled
        engine).  Results are bitwise independent of instance order,
        chunking and pooling — each instance's Newton iteration is
        elementwise-independent of its batch neighbours.

        The run goes through :meth:`SweepPlan.run` and so the
        fault-tolerant supervisor (pool rebuild after a worker crash,
        in-process degradation, and checkpoint/resume when the policy
        sets ``checkpoint_root``); a result row is validated against
        the engine's schema before it may merge.  Zero instances return
        a well-formed empty result.
        """
        x, converged = self._sweep(
            variation,
            n_instances,
            args=(self.nominal_solution(),),
            row_shape=(self.plan.size,),
            n_flags=1,
            policy=policy,
        )
        return MonteCarloResult(self.system.layout, x, converged)

    def _solve_chunk(
        self, variation: FETVariation, x0: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The continuation ladder from the nominal solution, row per instance.

        Returns the ``(m, size)`` solutions and per-instance convergence.
        """
        x_start = np.tile(x0, (variation.n_instances, 1))
        rows = ladder_many(self.plan, x_start, variation=variation)
        return rows.x, rows.converged


# ---------------------------------------------------------------------------
# Batched transient Monte Carlo: N instances time-stepped in lockstep.
# ---------------------------------------------------------------------------


class CircuitTransientMC(_BatchedNewtonEngine):
    """Time-step N parameter-perturbed instances of one compiled circuit.

    The t=0 operating point is solved through the stacked continuation
    ladder from the structural seed; then
    :func:`repro.circuit.transient.march` steps all instances in
    lockstep on one shared ``(t_stop, dt, integrator)`` grid.  The
    instances whose step fails batched Newton walk the same ladder the
    scalar ``transient()`` applies to a failed step, stacked, and then
    rejoin the lockstep batch.  Instances that entered the ladder are
    reported in ``TransientMCResult.fallback``; only an instance the
    ladder cannot rescue comes back ``converged=False`` (with NaN
    samples).

    Determinism: per-instance arithmetic is elementwise throughout, so
    waveforms are bitwise invariant to chunk size, instance order, and
    serial vs. process-pool execution, and match the per-instance
    scalar loop to solver tolerance.
    """

    def run(
        self,
        variation: FETVariation | None = None,
        t_stop_s: float | None = None,
        dt_s: float | None = None,
        *,
        integrator: str = "trapezoidal",
        n_instances: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> TransientMCResult:
        """March all instances to ``t_stop_s``; samples in input order.

        Results are bitwise independent of the policy's ``chunk_size``
        and ``workers`` and of instance order.  The run is supervised like
        :meth:`CircuitMonteCarlo.run`, configured by ``policy``; zero
        instances return a well-formed empty result.
        """
        if t_stop_s is None or dt_s is None:
            raise ValueError("give t_stop_s and dt_s")
        n_steps = validate_grid(t_stop_s, dt_s, integrator)
        samples, converged, fallback = self._sweep(
            variation,
            n_instances,
            args=(t_stop_s, dt_s, integrator),
            row_shape=(n_steps + 1, self.plan.size),
            n_flags=2,
            policy=policy,
        )
        return TransientMCResult(
            self.system.layout, samples, converged, dt_s=dt_s, fallback=fallback
        )

    # -- the lockstep march -----------------------------------------------------
    def _solve_chunk(
        self,
        variation: FETVariation,
        t_stop_s: float,
        dt_s: float,
        integrator: str,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """March one chunk; ``(samples, converged, fallback)`` per instance."""
        n_steps = validate_grid(t_stop_s, dt_s, integrator)
        m = variation.n_instances
        # t=0 operating point: the continuation ladder from the same
        # structural seed the scalar path starts from.
        seed = structural_seed(self.system, time_s=0.0)
        rows = ladder_many(
            self.plan, np.tile(seed, (m, 1)), variation=variation, time_s=0.0
        )
        ok, fallback = rows.converged, rows.entered
        alive = np.flatnonzero(ok)
        samples = np.full((m, n_steps + 1, self.plan.size), np.nan)
        samples[alive], rescued, errors = march(
            self.plan,
            rows.x[alive],
            n_steps,
            dt_s,
            integrator,
            variation=variation.take(alive),
        )
        fallback[alive] |= rescued
        ok[alive[list(errors)]] = False
        return samples, ok, fallback
