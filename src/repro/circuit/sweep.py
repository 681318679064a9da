"""Batched sweep / Monte Carlo engine: many instances, one compiled plan.

The integration story of the paper (yield, variability, array-scale
statistics) needs the *same* computation repeated over many parameter-
perturbed instances — 10,000-device arrays, purity sweeps, corner
analyses, circuit Monte Carlo.  Before this module every such experiment
re-solved its instances one at a time in a Python loop, ignoring the
batched :meth:`repro.devices.base.FETModel.linearize` machinery the
compiled stamp plan already exposes.  Three layers fix that:

* :class:`SweepPlan` — a generic chunked map engine every sweep-shaped
  consumer routes through.  It owns the execution policy (chunking, an
  optional ``concurrent.futures`` process pool for large N) and the
  randomness policy: deterministic substreams spawned from a single
  seed via :class:`numpy.random.SeedSequence`, assigned to instances in
  fixed-size *blocks* so results are bitwise identical across chunk
  sizes, worker counts, and serial vs. pooled execution.
* :class:`CircuitMonteCarlo` — the DC circuit engine.  It compiles a
  circuit's stamp plan **once** and solves N parameter-perturbed
  instances against the shared sparsity structure: stacked residuals
  ``(m, size)`` and stacked Jacobians — dense ``(m, size, size)``
  below ``assembly.SPARSE_THRESHOLD``, CSR ``data`` stacks ``(m,
  nnz)`` on the plan's canonical sparse pattern above it — with every
  FET group's bias points across *all* instances batched into a
  single ``linearize`` call.  Newton steps come from one batched
  LAPACK ``np.linalg.solve`` (dense) or per-instance numeric
  refactorizations against the plan's one-time symbolic ordering
  (sparse; see :class:`repro.circuit.assembly._SparseSchedule`).
  Per-instance device-parameter arrays (:class:`FETVariation`:
  drive-strength scale and threshold shift) thread through the
  batched path without touching the device models.
* :class:`CircuitTransientMC` — the transient circuit engine.  It
  marches all N instances through one shared ``(dt, integrator)`` time
  grid in lockstep: capacitor companion state stacked ``(m, n_caps)``,
  each per-step Newton iteration making one batched ``linearize`` call
  and one batched LAPACK solve across the still-active instances, with
  the per-instance damping/convergence criteria and the gmin rescue
  ladder shared with :class:`CircuitMonteCarlo`.  An instance whose
  time step fails batched Newton **falls back to the scalar
  per-instance path individually** (re-integrated through
  :func:`repro.circuit.transient.transient_samples` with explicitly
  perturbed devices, continuation rescue included) instead of
  poisoning the rest of the batch.

Perturbation semantics: for a FET with unwrapped base model ``I_n`` and
polarity sign ``s`` (see ``assembly._unwrap_polarity``), instance ``i``
evaluates ``drive_scale[i] * s * I_n(s*vgs - vth_shift[i], s*vds)`` —
a multiplicative drive variation (tube count / mobility) plus a shift
of the underlying n-type threshold, both of which preserve the shared
sparsity structure and the batched linearize call.  The scalar
reference of those semantics is :class:`ScaledShiftedFET` /
:func:`perturbed_circuit`, used by the per-instance fallbacks and the
equivalence test suite.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.circuit.assembly import (
    DIAG_REGULARIZATION,
    UnsupportedElement,
    _unwrap_polarity,
)
from repro.circuit.continuation import (
    solve_dc_robust,
    structural_seed,
)
from repro.circuit.elements import (
    FET,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.resilience import (
    ExecutionPolicy,
    RunReport,
    fingerprint,
    run_supervised,
)
from repro.circuit.solver import (
    _MAX_ITERATIONS,
    _RESIDUAL_ATOL,
    _RESIDUAL_RTOL,
    _STEP_TOL,
    solve_dc,
)
from repro.circuit.transient import TransientResult, validate_grid
from repro.devices.base import FETModel, PType

__all__ = [
    "SweepPlan",
    "ExecutionPolicy",
    "FETVariation",
    "CircuitMonteCarlo",
    "CircuitTransientMC",
    "MonteCarloResult",
    "TransientMCResult",
    "SweepStatistics",
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

# gmin staircase for batch stragglers (same spirit as continuation's
# adaptive stepping, fixed schedule — only ever runs on failures).
_GMIN_RESCUE_LADDER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0)


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


def _run_block(kernel, params, rng, payload):
    """One vectorized-kernel invocation, normalised to a result list."""
    out = kernel(params, rng, payload)
    return list(out)


def _run_chunk(spec):
    """Execute one chunk of blocks (top-level so process pools can pickle it)."""
    kernel, vectorized, payload, blocks = spec
    results: list = []
    for params, seed_seq in blocks:
        rng = None if seed_seq is None else np.random.default_rng(seed_seq)
        if vectorized:
            results.extend(_run_block(kernel, params, rng, payload))
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
        ``workers`` is used.
    substream_block:
        Instances per spawned substream in vectorized mode.  This is the
        randomness *and* batching granularity: results are independent
        of ``chunk_size``/``workers`` because kernels always see whole
        blocks.

    ``run`` executes the kernel over a parameter sequence and returns
    the per-instance results in input order.
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

    def _prepare(self, params, seed, chunk_size, workers):
        """Chunk ``params`` into pool specs; ``(specs, counts, seed_token)``.

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

        use_pool = workers is not None and workers > 1 and len(blocks) > 1
        if chunk_size is None:
            # Pooled runs need more than one chunk to parallelise: split
            # the blocks evenly across the workers by default.
            per_chunk = (
                -(-len(blocks) // workers) if use_pool else len(blocks)
            )
        else:
            if chunk_size < 1:
                raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
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
        seed_token = (
            None
            if root is None
            else (int(root.entropy), tuple(root.spawn_key), root.pool_size)
        )
        return specs, counts, seed_token, per_chunk

    def run(
        self,
        params,
        *,
        seed: int | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> list:
        """Map the kernel over ``params``; results keep the input order.

        ``seed`` (an int, or a pre-spawned
        :class:`numpy.random.SeedSequence` when a caller derives several
        independent sweeps from one user seed) derives one substream per
        instance (scalar kernels) or per block (vectorized kernels) via
        ``SeedSequence.spawn`` — the draws depend only on the instance
        position, never on ``chunk_size`` or ``workers``.  ``workers`` >
        1 dispatches whole chunks to a process pool (kernel, params and
        payload must pickle).

        ``policy`` routes the run through the fault-tolerant supervisor
        (:mod:`repro.circuit.resilience`): per-chunk timeouts, bounded
        retries with pool rebuild, serial degradation, chunk-granular
        checkpoint/resume.  Results are bitwise identical either way —
        a chunk's output depends only on its spec, never on where or
        how often it executes.
        """
        if policy is not None:
            results, _ = self.run_supervised(
                params,
                seed=seed,
                chunk_size=chunk_size,
                workers=workers,
                policy=policy,
            )
            return results
        params = list(params)
        if len(params) == 0:
            return []
        specs, _, _, _ = self._prepare(params, seed, chunk_size, workers)
        use_pool = workers is not None and workers > 1 and len(specs) > 1
        if use_pool:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(pool.map(_run_chunk, specs))
        else:
            chunk_results = [_run_chunk(spec) for spec in specs]
        return [result for chunk in chunk_results for result in chunk]

    def run_supervised(
        self,
        params,
        *,
        seed: int | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> tuple[list, RunReport]:
        """:meth:`run` under the supervisor; returns ``(results, report)``.

        Raises :class:`~repro.circuit.resilience.SweepExecutionError`
        (report and salvaged chunks attached) if any chunk stays failed
        after timeouts, retries, pool rebuilds and the serial rung.
        The checkpoint run key fingerprints (kernel, payload, seed,
        chunking), so resuming requires the same ``chunk_size``; a
        changed input simply misses the cache and recomputes.
        """
        params = list(params)
        policy = ExecutionPolicy() if policy is None else policy
        if len(params) == 0:
            empty = RunReport(chunks=[], workers=workers, pool_rebuilds=0, wall_s=0.0)
            policy.reports.append(empty)
            return [], empty
        specs, counts, seed_token, per_chunk = self._prepare(
            params, seed, chunk_size, workers
        )
        kernel_token = f"{self.kernel.__module__}.{self.kernel.__qualname__}"
        # The payload digest keeps sweeps that differ only in payload
        # (e.g. the same kernel over different compiled circuits) in
        # separate checkpoint run directories; computed only when a
        # checkpoint store is actually configured.
        payload_token = (
            fingerprint(self.payload)
            if policy.checkpoint_root is not None
            else None
        )
        run_token = (
            kernel_token,
            self.vectorized,
            self.substream_block,
            per_chunk,
            len(params),
            seed_token,
            payload_token,
        )
        return run_supervised(
            specs,
            chunk_fn=_run_chunk,
            expected_counts=counts,
            workers=workers,
            policy=policy,
            validate=self.validate,
            run_token=run_token,
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
        substream_block: int = DEFAULT_SUBSTREAM_BLOCK,
    ) -> "FETVariation":
        """Draw a lognormal-drive / normal-threshold variation.

        ``drive_sigma`` is the *linear* coefficient of variation: scales
        are lognormal with unit mean and relative spread ``drive_sigma``
        (same convention as
        :class:`repro.integration.variability.CNFETArrayModel`).  Draws
        come from per-block substreams, so the variation for instance
        ``i`` depends only on ``(seed, i)`` — not on how a later sweep
        is chunked or parallelised.
        """
        if n_instances < 1 or n_fets < 1:
            raise ValueError("need at least one instance and one FET")
        if drive_sigma < 0.0 or vth_sigma_v < 0.0:
            raise ValueError("sigmas must be >= 0")
        scale = np.empty((n_instances, n_fets))
        shift = np.empty((n_instances, n_fets))
        ranges = _as_blocks(n_instances, substream_block)
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
                shift[start:stop] = rng.normal(
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


# repro-lint: ok[FPR003] -- ephemeral per-instance wrapper for equivalence tests; never surrogate-compiled
class ScaledShiftedFET(FETModel):
    """``scale * I_base(vgs - shift, vds)`` — FETVariation's scalar reference.

    The multiplication/subtraction order matches the batched engines'
    arithmetic exactly, so a circuit rebuilt from these wrappers (see
    :func:`perturbed_circuit`) evaluates bitwise-identically to the
    corresponding batch row and serves both as the per-instance scalar
    fallback and as the reference side of the equivalence tests.
    """

    def __init__(self, base: FETModel, drive_scale: float, vth_shift_v: float):
        self.base = base
        self.drive_scale = float(drive_scale)
        self.vth_shift_v = float(vth_shift_v)

    @property
    def prefer_batched_points(self) -> bool:
        # A wrapper around a solver-backed model is as expensive per
        # scalar call as the model itself.
        return self.base.prefer_batched_points

    def current(self, vgs: float, vds: float) -> float:
        return self.drive_scale * self.base.current(vgs - self.vth_shift_v, vds)

    # repro-lint: ok[PRT001] -- variation adapter: scales/shifts the base model, which owns the mirror transform
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        return self.drive_scale * self.base.currents(
            np.asarray(vgs_values, dtype=float) - self.vth_shift_v, vds_values
        )

    def linearize(self, vgs_values, vds_values, delta_v: float | None = None):
        current, gm, gds = self.base.linearize(
            np.asarray(vgs_values, dtype=float) - self.vth_shift_v,
            vds_values,
            delta_v,
        )
        return (
            current * self.drive_scale,
            gm * self.drive_scale,
            gds * self.drive_scale,
        )

    def linearize_point(self, vgs: float, vds: float, delta_v: float | None = None):
        current, gm, gds = self.base.linearize_point(
            vgs - self.vth_shift_v, vds, delta_v
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
            clone.add(FET(el.name, el.drain, el.gate, el.source, wrapped, el.delta_v))
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


@dataclass(frozen=True)
class SweepStatistics:
    """Summary statistics of one scalar output across sweep instances."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n_instances: int
    n_converged: int


@dataclass(frozen=True)
class MonteCarloResult:
    """Stacked DC solutions of a circuit Monte Carlo run."""

    x: np.ndarray
    converged: np.ndarray
    node_index: dict[str, int]
    branch_index: dict[str, int]

    @property
    def n_instances(self) -> int:
        return self.x.shape[0]

    @property
    def n_converged(self) -> int:
        return int(np.count_nonzero(self.converged))

    def voltage(self, node: str) -> np.ndarray:
        """Per-instance voltage trace of one node [V]."""
        if node in ("0", "gnd", "GND", "ground"):
            return np.zeros(self.n_instances)
        try:
            return self.x[:, self.node_index[node]]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> np.ndarray:
        """Per-instance branch current of one voltage source [A]."""
        try:
            return self.x[:, self.branch_index[name]]
        except KeyError:
            raise KeyError(f"unknown voltage source {name!r}") from None

    def take_instance(self, i: int) -> tuple[np.ndarray, bool]:
        """(solution row, converged flag) of one instance."""
        return self.x[i], bool(self.converged[i])

    def statistics(self, node: str) -> SweepStatistics:
        """Converged-instance statistics of one node voltage."""
        values = self.voltage(node)[self.converged]
        if values.size == 0:
            raise ValueError("no converged instances to summarise")
        return SweepStatistics(
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            n_instances=self.n_instances,
            n_converged=self.n_converged,
        )


@dataclass(frozen=True)
class TransientMCResult:
    """Stacked transient sample trajectories of a circuit Monte Carlo run.

    ``samples[i, k]`` is instance ``i``'s full unknown vector at time
    sample ``k`` (``k = 0`` is the t=0 operating point).  ``fallback``
    marks instances whose batched time-stepping failed a step and were
    re-integrated through the scalar per-instance path; ``converged``
    is False only where even that path raised, in which case the
    instance's samples are NaN.
    """

    samples: np.ndarray
    dt_s: float
    converged: np.ndarray
    fallback: np.ndarray
    node_index: dict[str, int]
    branch_index: dict[str, int]

    @property
    def n_instances(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def n_converged(self) -> int:
        return int(np.count_nonzero(self.converged))

    @property
    def n_fallback(self) -> int:
        return int(np.count_nonzero(self.fallback))

    @property
    def time_s(self) -> np.ndarray:
        """The shared time grid [s] (one row for every instance)."""
        return self.dt_s * np.arange(self.n_samples)

    def voltage(self, node: str) -> np.ndarray:
        """(n_instances, n_samples) waveforms of one node [V]."""
        if node in ("0", "gnd", "GND", "ground"):
            return np.zeros((self.n_instances, self.n_samples))
        try:
            return self.samples[:, :, self.node_index[node]]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def source_current(self, name: str) -> np.ndarray:
        """(n_instances, n_samples) branch currents of one voltage source [A]."""
        try:
            return self.samples[:, :, self.branch_index[name]]
        except KeyError:
            raise KeyError(f"unknown voltage source {name!r}") from None

    def instance_waveforms(self, i: int) -> TransientResult:
        """One instance's trajectory as a scalar :class:`TransientResult`."""
        w = self.samples[i]
        voltages = {node: w[:, idx] for node, idx in self.node_index.items()}
        currents = {name: w[:, idx] for name, idx in self.branch_index.items()}
        return TransientResult(
            time_s=self.time_s, voltages=voltages, source_currents=currents
        )

    def statistics(self, node: str, sample: int = -1) -> SweepStatistics:
        """Converged-instance statistics of one node voltage at one sample."""
        values = self.voltage(node)[self.converged, sample]
        if values.size == 0:
            raise ValueError("no converged instances to summarise")
        return SweepStatistics(
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            n_instances=self.n_instances,
            n_converged=self.n_converged,
        )


def _concat_results(
    parts: list[MonteCarloResult],
    *,
    size: int,
    node_index: dict[str, int],
    branch_index: dict[str, int],
) -> MonteCarloResult:
    """Stack chunk results; zero chunks yield a well-formed empty result."""
    if not parts:
        return MonteCarloResult(
            x=np.empty((0, size)),
            converged=np.zeros(0, dtype=bool),
            node_index=node_index,
            branch_index=branch_index,
        )
    return MonteCarloResult(
        x=np.concatenate([p.x for p in parts], axis=0),
        converged=np.concatenate([p.converged for p in parts]),
        node_index=node_index,
        branch_index=branch_index,
    )


def _concat_transient(
    parts: list[TransientMCResult],
    *,
    size: int,
    n_samples: int,
    dt_s: float,
    node_index: dict[str, int],
    branch_index: dict[str, int],
) -> TransientMCResult:
    """Stack chunk trajectories; zero chunks yield a well-formed empty result."""
    if not parts:
        return TransientMCResult(
            samples=np.empty((0, n_samples, size)),
            dt_s=dt_s,
            converged=np.zeros(0, dtype=bool),
            fallback=np.zeros(0, dtype=bool),
            node_index=node_index,
            branch_index=branch_index,
        )
    return TransientMCResult(
        samples=np.concatenate([p.samples for p in parts], axis=0),
        dt_s=dt_s,
        converged=np.concatenate([p.converged for p in parts]),
        fallback=np.concatenate([p.fallback for p in parts]),
        node_index=node_index,
        branch_index=branch_index,
    )


# ---------------------------------------------------------------------------
# Batched Newton over one compiled stamp plan (shared DC/transient core).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BatchContext:
    """Evaluation context of one batched solve (DC or one transient step).

    ``previous_x`` is the previous-solution stack ``(m, size)`` and
    ``state`` the trapezoidal companion history ``(m, n_caps)`` — both
    per-instance, so the line search narrows them with :meth:`take`
    alongside the variation rows.
    """

    time_s: float | None = None
    dt_s: float | None = None
    integrator: str = "trapezoidal"
    previous_x: np.ndarray | None = None
    state: np.ndarray | None = None

    def take(self, rows) -> "_BatchContext":
        if self.previous_x is None:
            return self
        return _BatchContext(
            time_s=self.time_s,
            dt_s=self.dt_s,
            integrator=self.integrator,
            previous_x=self.previous_x[rows],
            state=None if self.state is None else self.state[rows],
        )

    def evaluate(self, plan, x, variation, gmin: float = 0.0):
        """:meth:`~repro.circuit.assembly.StampPlan.evaluate_many` in
        this context."""
        return plan.evaluate_many(
            x,
            time_s=self.time_s,
            dt_s=self.dt_s,
            previous_x=self.previous_x,
            integrator=self.integrator,
            state=self.state,
            gmin=gmin,
            variation=variation,
        )


_DC_CONTEXT = _BatchContext()


class _BatchedNewtonEngine:
    """Shared core of the circuit engines: one compiled plan, N instances.

    Owns the compiled stamp plan and the batched damped Newton
    iteration (:meth:`_newton_batch`), in both DC and transient-step
    contexts; every stacked evaluation is one
    :meth:`~repro.circuit.assembly.StampPlan.evaluate_many` call with
    the instances' :class:`FETVariation` rows.
    """

    _ENGINE_NAME = "batched engine"

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.system = circuit.build_system()
        self.plan = self.system._plan
        self.fets = tuple(el for el in circuit.elements if isinstance(el, FET))
        if not self.fets:
            raise ValueError("circuit has no FETs to perturb")
        self.fet_names = tuple(f.name for f in self.fets)
        self.node_index = {
            node: self.system.node_index(node) for node in circuit.node_names
        }
        self.branch_index = {
            el.name: el.branch_index
            for el in circuit.elements
            if isinstance(el, VoltageSource)
        }

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
        return variation

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

    # -- batched Newton ---------------------------------------------------------
    def _newton_batch(
        self,
        x0: np.ndarray,
        variation: FETVariation,
        gmin: float = 0.0,
        max_iterations: int = _MAX_ITERATIONS,
        ctx: _BatchContext = _DC_CONTEXT,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Damped Newton on every instance at once; returns (x, converged).

        Per-instance semantics mirror :func:`repro.circuit.solver.
        newton_solve`: one relative+absolute max-norm criterion, a
        backtracking line search with per-instance damping, and a
        step-stall exit.  Instances leave the active set as they
        converge (or stall), so late iterations only pay for the
        stragglers.
        """
        m = x0.shape[0]
        x = x0.copy()
        residual, jacobian = ctx.evaluate(self.plan, x, variation, gmin)
        norm = np.abs(residual).max(axis=1)
        tolerance = _RESIDUAL_ATOL + _RESIDUAL_RTOL * norm
        converged = norm <= tolerance
        active = np.flatnonzero(~converged)
        iterations = 0

        while active.size and iterations < max_iterations:
            iterations += 1
            jac_active = jacobian[active]  # copy — safe to regularize in place
            step, dead = self._solve_steps(jac_active, -residual[active])
            if dead.size:
                # Singular instances leave the active set unconverged.
                active = np.delete(active, dead)
                step = np.delete(step, dead, axis=0)
                if not active.size:
                    break
            bad = ~np.all(np.isfinite(step), axis=1)
            if bad.any():
                active = active[~bad]
                step = step[~bad]
                if not active.size:
                    break

            # Vectorised backtracking line search with per-instance damping.
            damping = np.ones(active.size)
            accepted = np.zeros(active.size, dtype=bool)
            pending = np.arange(active.size)
            for _ in range(30):
                rows = active[pending]
                x_trial = x[rows] + damping[pending, None] * step[pending]
                r_trial, j_trial = ctx.take(rows).evaluate(
                    self.plan, x_trial, variation.take(rows), gmin
                )
                n_trial = np.abs(r_trial).max(axis=1)
                ok = (n_trial < norm[rows]) | (n_trial <= tolerance[rows])
                take = pending[ok]
                if take.size:
                    sel = active[take]
                    x[sel] = x_trial[ok]
                    residual[sel] = r_trial[ok]
                    jacobian[sel] = j_trial[ok]
                    norm[sel] = n_trial[ok]
                    accepted[take] = True
                pending = pending[~ok]
                if not pending.size:
                    break
                damping[pending] *= 0.5

            moved = np.flatnonzero(accepted)
            step_size = np.zeros(active.size)
            step_size[moved] = np.abs(
                damping[moved, None] * step[moved]
            ).max(axis=1)
            converged[active] = norm[active] <= tolerance[active]
            # Stay active only if: the line search moved, we haven't
            # converged, and the step hasn't stalled below _STEP_TOL.
            keep = accepted & ~converged[active] & (step_size >= _STEP_TOL)
            active = active[keep]
        return x, converged

    def _rescue_batch(
        self,
        x_seed: np.ndarray,
        x: np.ndarray,
        converged: np.ndarray,
        variation: FETVariation,
        ctx: _BatchContext = _DC_CONTEXT,
    ) -> None:
        """Walk unconverged instances down the gmin rescue ladder (in place).

        Same spirit as continuation's adaptive stepping, fixed schedule
        — only ever runs on the few failed instances.  Only the final
        unshunted stage decides: its entry point is already near the
        solution, so the relative criterion is meaningful there.
        """
        failed = np.flatnonzero(~converged)
        if not failed.size:
            return
        sub = variation.take(failed)
        x_fail = np.tile(x_seed, (failed.size, 1))
        for gmin in _GMIN_RESCUE_LADDER:
            x_fail, stage_ok = self._newton_batch(
                x_fail, sub, gmin=gmin, ctx=ctx.take(failed)
            )
        x[failed[stage_ok]] = x_fail[stage_ok]
        converged[failed[stage_ok]] = True

    def _solve_steps(
        self, jac_active: np.ndarray, rhs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Regularized Newton steps for a stack of per-instance Jacobians.

        Dense: one batched LAPACK solve over the ``(k, size, size)``
        stack, dropping to a per-row retry only when LAPACK reports a
        singular member.  Sparse: per-instance numeric refactorization
        of the ``(k, nnz)`` data stack against the plan's one-time
        symbolic ordering (:meth:`repro.circuit.assembly.
        _SparseSchedule.factor`).  ``jac_active`` is a private copy and
        is regularized in place.  Returns ``(steps, dead)`` with
        ``dead`` indexing rows whose matrix is numerically singular.
        """
        no_dead = np.empty(0, dtype=np.intp)
        if not self.plan.use_sparse:
            diag = np.einsum("ijj->ij", jac_active)
            diag += DIAG_REGULARIZATION
            try:
                # RHS as (k, size, 1) column matrices: the batched-solve
                # gufunc otherwise misreads a (k, size) stack as one matrix.
                return np.linalg.solve(jac_active, rhs[:, :, None])[..., 0], no_dead
            except np.linalg.LinAlgError:
                return self._solve_rows(jac_active, rhs)
        schedule = self.plan.sparse_schedule
        jac_active[:, schedule.diag_pos] += DIAG_REGULARIZATION
        steps = np.zeros_like(rhs)
        dead: list[int] = []
        for i in range(jac_active.shape[0]):
            solve = schedule.factor(jac_active[i])
            if solve is None:
                dead.append(i)
                continue
            steps[i] = solve(rhs[i])
        return steps, (no_dead if not dead else np.array(dead, dtype=np.intp))

    @staticmethod
    def _solve_rows(jacobians: np.ndarray, rhs: np.ndarray):
        """Row-by-row fallback when the batched solve hits a singular matrix."""
        steps = np.zeros_like(rhs)
        dead: list[int] = []
        for i in range(jacobians.shape[0]):
            try:
                steps[i] = np.linalg.solve(jacobians[i], rhs[i])
            except np.linalg.LinAlgError:
                dead.append(i)
        return steps, np.array(dead, dtype=np.intp)


@lru_cache(maxsize=4)
def _engine_from_pickle(circuit_bytes: bytes) -> "CircuitMonteCarlo":
    """Rebuild (and cache) an engine inside a pool worker process."""
    return CircuitMonteCarlo(pickle.loads(circuit_bytes))


def _mc_entry_validator(size: int):
    """Merge-boundary schema of one DC MC entry: ``(x row, converged)``.

    Applied by the supervisor before a pooled chunk may merge, so a
    corrupt worker payload is rejected (and the chunk retried) at the
    boundary instead of poisoning the stacked result.
    """

    def _valid(entry) -> bool:
        x_i, converged = entry
        return (
            isinstance(x_i, np.ndarray)
            and x_i.shape == (size,)
            and x_i.dtype.kind == "f"
            and isinstance(converged, (bool, np.bool_))
        )

    return _valid


def _transient_entry_validator(size: int, n_samples: int):
    """Merge-boundary schema of one transient MC entry.

    ``(samples (n_samples, size), converged, fallback)`` — NaN samples
    are legitimate (an instance that failed even the scalar rescue), so
    only type and shape are checked.
    """

    def _valid(entry) -> bool:
        samples, converged, fallback = entry
        return (
            isinstance(samples, np.ndarray)
            and samples.shape == (n_samples, size)
            and samples.dtype.kind == "f"
            and isinstance(converged, (bool, np.bool_))
            and isinstance(fallback, (bool, np.bool_))
        )

    return _valid


def _circuit_chunk_kernel(params_block, rng, payload):
    """SweepPlan kernel: solve one block of variation rows (pool-safe)."""
    circuit_bytes, x0 = payload
    engine = _engine_from_pickle(circuit_bytes)
    scale = np.stack([row[0] for row in params_block])
    shift = np.stack([row[1] for row in params_block])
    result = engine._solve_chunk(
        FETVariation(drive_scale=scale, vth_shift_v=shift), x0
    )
    return [result.take_instance(i) for i in range(result.n_instances)]


class CircuitMonteCarlo(_BatchedNewtonEngine):
    """Solve N parameter-perturbed DC instances of one compiled circuit.

    The stamp plan is compiled once; each chunk of instances is solved
    by a batched damped Newton iteration sharing the plan's constant
    linear matrix and FET-group index arrays.  Per-iteration work is
    one ``linearize`` call per device-model group (over *all* active
    instances' bias points at once) plus one batched LAPACK solve over
    the stacked Jacobians.  Convergence is judged per instance with the
    scalar solver's relative+absolute criterion; stragglers get a gmin
    retry ladder, and anything still unconverged is reported as such in
    :class:`MonteCarloResult` rather than raising.

    Sparse plans (``size >= SPARSE_THRESHOLD``) batch the same way:
    every instance shares the plan's canonical sparsity pattern, so the
    Jacobian stack is a ``(m, nnz)`` CSR ``data`` array and each Newton
    step refactorizes the active instances numerically against the
    plan's one-time symbolic ordering.
    """

    _ENGINE_NAME = "CircuitMonteCarlo"

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
        chunk_size: int | None = None,
        workers: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> MonteCarloResult:
        """Solve all instances; returns stacked solutions in input order.

        ``chunk_size`` is the batch width (defaults to
        :data:`DEFAULT_CIRCUIT_CHUNK`); ``workers`` > 1 ships chunks to
        a process pool (the circuit is pickled once, workers cache the
        compiled engine).  Results are bitwise independent of instance
        order, chunking and pooling — each instance's Newton iteration
        is elementwise-independent of its batch neighbours.

        ``policy`` (an :class:`~repro.circuit.resilience.
        ExecutionPolicy`) runs the sweep under the fault-tolerant
        supervisor — chunk timeouts, retries, pool rebuilds, serial
        degradation, checkpoint/resume — with bitwise-identical
        results; a result row is validated against the engine's schema
        before it may merge.  Zero instances return a well-formed empty
        result.
        """
        variation = self._check_variation(variation, n_instances)
        n = variation.n_instances
        if n == 0:
            return _concat_results(
                [],
                size=self.plan.size,
                node_index=self.node_index,
                branch_index=self.branch_index,
            )
        x0 = self.nominal_solution()
        if chunk_size is None:
            chunk_size = DEFAULT_CIRCUIT_CHUNK
            if workers is not None and workers > 1:
                # A pooled run needs at least one chunk per worker to
                # parallelise at all.
                chunk_size = min(chunk_size, -(-n // workers))

        if (workers is not None and workers > 1) or policy is not None:
            # Route chunk dispatch through the generic engine: the
            # kernel rebuilds (and caches) this engine in each worker.
            sweep = SweepPlan(
                _circuit_chunk_kernel,
                vectorized=True,
                payload=(pickle.dumps(self.circuit), x0.copy()),
                substream_block=chunk_size,
                validate=_mc_entry_validator(self.plan.size),
            )
            rows = list(zip(variation.drive_scale, variation.vth_shift_v))
            per_instance = sweep.run(
                rows, chunk_size=chunk_size, workers=workers, policy=policy
            )
            x = np.stack([row[0] for row in per_instance])
            converged = np.array([row[1] for row in per_instance], dtype=bool)
            return MonteCarloResult(
                x=x,
                converged=converged,
                node_index=self.node_index,
                branch_index=self.branch_index,
            )

        parts = [
            self._solve_chunk(variation.take(slice(start, stop)), x0)
            for start, stop in _as_blocks(n, chunk_size)
        ]
        return _concat_results(
            parts,
            size=self.plan.size,
            node_index=self.node_index,
            branch_index=self.branch_index,
        )

    def _solve_chunk(
        self, variation: FETVariation, x0: np.ndarray
    ) -> MonteCarloResult:
        """Batched Newton from the nominal seed, with a gmin rescue ladder."""
        m = variation.n_instances
        x_start = np.tile(x0, (m, 1))
        x, converged = self._newton_batch(x_start, variation)
        self._rescue_batch(x0, x, converged, variation)
        return MonteCarloResult(
            x=x,
            converged=converged,
            node_index=self.node_index,
            branch_index=self.branch_index,
        )


# ---------------------------------------------------------------------------
# Batched transient Monte Carlo: N instances time-stepped in lockstep.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _transient_engine_from_pickle(circuit_bytes: bytes) -> "CircuitTransientMC":
    """Rebuild (and cache) a transient engine inside a pool worker process."""
    return CircuitTransientMC(pickle.loads(circuit_bytes))


def _transient_chunk_kernel(params_block, rng, payload):
    """SweepPlan kernel: march one block of variation rows (pool-safe)."""
    circuit_bytes, t_stop_s, dt_s, integrator, step_max_iterations = payload
    engine = _transient_engine_from_pickle(circuit_bytes)
    scale = np.stack([row[0] for row in params_block])
    shift = np.stack([row[1] for row in params_block])
    part = engine._march_chunk(
        FETVariation(drive_scale=scale, vth_shift_v=shift),
        t_stop_s,
        dt_s,
        integrator,
        step_max_iterations,
    )
    return [
        (part.samples[i], bool(part.converged[i]), bool(part.fallback[i]))
        for i in range(part.n_instances)
    ]


class CircuitTransientMC(_BatchedNewtonEngine):
    """Time-step N parameter-perturbed instances of one compiled circuit.

    All instances march one shared ``(t_stop, dt, integrator)`` grid in
    lockstep against the plan's constant per-``(dt, integrator)`` linear
    matrix.  The t=0 operating point is solved batched from the
    structural seed (gmin rescue ladder for stragglers, scalar
    continuation for anything left); each subsequent step runs the
    batched damped Newton iteration from the previous solutions with
    the capacitor companion state stacked ``(m, n_caps)``.

    Per-instance robustness: an instance whose step fails batched
    Newton **falls back to the scalar path individually** — the same
    adaptive continuation rescue the scalar ``transient()`` applies to
    a failed step (:func:`~repro.circuit.continuation.solve_dc_robust`
    on a :func:`perturbed_circuit` clone, anchored at that instance's
    previous solution and companion state) — and then rejoins the
    lockstep batch, rather than poisoning its neighbours.  Such
    instances are reported in ``TransientMCResult.fallback``; only an
    instance that fails *even the scalar rescue* comes back
    ``converged=False`` (with NaN samples).

    Determinism: per-instance arithmetic is elementwise throughout, so
    waveforms are bitwise invariant to chunk size, instance order, and
    serial vs. process-pool execution, and match the per-instance
    scalar loop to solver tolerance.
    """

    _ENGINE_NAME = "CircuitTransientMC"

    def run(
        self,
        variation: FETVariation | None = None,
        t_stop_s: float | None = None,
        dt_s: float | None = None,
        *,
        integrator: str = "trapezoidal",
        n_instances: int | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        step_max_iterations: int = _MAX_ITERATIONS,
        policy: ExecutionPolicy | None = None,
    ) -> TransientMCResult:
        """March all instances to ``t_stop_s``; samples in input order.

        ``step_max_iterations`` caps each time step's batched Newton
        iteration before the per-instance scalar fallback engages
        (exposed for tests; the default matches the scalar solver).
        Results are bitwise independent of ``chunk_size``, instance
        order and ``workers``.  ``policy`` runs the sweep under the
        fault-tolerant supervisor (see :class:`CircuitMonteCarlo.run`);
        zero instances return a well-formed empty result.
        """
        if t_stop_s is None or dt_s is None:
            raise ValueError("give t_stop_s and dt_s")
        n_steps = validate_grid(t_stop_s, dt_s, integrator)
        variation = self._check_variation(variation, n_instances)
        n = variation.n_instances
        if n == 0:
            return _concat_transient(
                [],
                size=self.plan.size,
                n_samples=n_steps + 1,
                dt_s=dt_s,
                node_index=self.node_index,
                branch_index=self.branch_index,
            )

        if chunk_size is None:
            chunk_size = DEFAULT_CIRCUIT_CHUNK
            if workers is not None and workers > 1:
                chunk_size = min(chunk_size, -(-n // workers))

        if (workers is not None and workers > 1) or policy is not None:
            sweep = SweepPlan(
                _transient_chunk_kernel,
                vectorized=True,
                payload=(
                    pickle.dumps(self.circuit),
                    t_stop_s,
                    dt_s,
                    integrator,
                    step_max_iterations,
                ),
                substream_block=chunk_size,
                validate=_transient_entry_validator(self.plan.size, n_steps + 1),
            )
            rows = list(zip(variation.drive_scale, variation.vth_shift_v))
            per_instance = sweep.run(
                rows, chunk_size=chunk_size, workers=workers, policy=policy
            )
            return TransientMCResult(
                samples=np.stack([row[0] for row in per_instance]),
                dt_s=dt_s,
                converged=np.array([row[1] for row in per_instance], dtype=bool),
                fallback=np.array([row[2] for row in per_instance], dtype=bool),
                node_index=self.node_index,
                branch_index=self.branch_index,
            )

        parts = [
            self._march_chunk(
                variation.take(slice(start, stop)),
                t_stop_s,
                dt_s,
                integrator,
                step_max_iterations,
            )
            for start, stop in _as_blocks(n, chunk_size)
        ]
        return _concat_transient(
            parts,
            size=self.plan.size,
            n_samples=n_steps + 1,
            dt_s=dt_s,
            node_index=self.node_index,
            branch_index=self.branch_index,
        )

    # -- the lockstep march -----------------------------------------------------
    def _march_chunk(
        self,
        variation: FETVariation,
        t_stop_s: float,
        dt_s: float,
        integrator: str,
        step_max_iterations: int,
    ) -> TransientMCResult:
        plan = self.plan
        size = plan.size
        n_steps = validate_grid(t_stop_s, dt_s, integrator)
        m = variation.n_instances
        samples = np.empty((m, n_steps + 1, size))
        converged = np.ones(m, dtype=bool)
        fallback = np.zeros(m, dtype=bool)
        # Perturbed scalar systems, built lazily for instances that need
        # a scalar rescue (and cached: a stiff instance tends to need
        # rescuing at several steps of the same switching edge).
        scalar_systems: dict[int, object] = {}

        # t=0 operating point: batched Newton from the same structural
        # seed the scalar path's continuation ladder starts from, gmin
        # ladder for stragglers, full scalar continuation for the rest.
        ctx0 = _BatchContext(time_s=0.0)
        seed = structural_seed(self.system, time_s=0.0)
        x = np.tile(seed, (m, 1))
        x, ok = self._newton_batch(x, variation, ctx=ctx0)
        self._rescue_batch(seed, x, ok, variation, ctx=ctx0)
        for i in np.flatnonzero(~ok):
            i = int(i)
            fallback[i] = True
            x_i, report = solve_dc_robust(
                self._scalar_system(scalar_systems, variation, i), time_s=0.0
            )
            if report.converged:
                x[i] = x_i
                ok[i] = True
            else:
                converged[i] = False
        samples[:, 0] = x

        alive = np.flatnonzero(ok)
        x_alive = x[alive]
        prevpad = np.zeros((alive.size, size + 1))
        prevpad[:, :size] = x_alive
        state = np.zeros((alive.size, len(plan.cap_names)))

        for step in range(1, n_steps + 1):
            if not alive.size:
                break
            ctx = _BatchContext(
                time_s=step * dt_s,
                dt_s=dt_s,
                integrator=integrator,
                previous_x=prevpad[:, :size],
                state=state,
            )
            x_next, ok_step = self._newton_batch(
                x_alive,
                variation.take(alive),
                ctx=ctx,
                max_iterations=step_max_iterations,
            )
            if not ok_step.all():
                # A failed step falls back to the scalar path
                # individually — the same adaptive continuation rescue
                # transient() applies to a failed step (anchored at that
                # instance's previous solution and companion state) —
                # after which the instance rejoins the lockstep batch.
                for row in np.flatnonzero(~ok_step):
                    row = int(row)
                    instance = int(alive[row])
                    fallback[instance] = True
                    system = self._scalar_system(scalar_systems, variation, instance)
                    state_dict = {
                        name: float(value)
                        for name, value in zip(plan.cap_names, state[row])
                    }
                    x_rescued, report = solve_dc_robust(
                        system,
                        prevpad[row, :size],
                        time_s=ctx.time_s,
                        dt_s=dt_s,
                        previous_x=prevpad[row, :size],
                        integrator=integrator,
                        state=state_dict,
                    )
                    if report.converged:
                        x_next[row] = x_rescued
                        ok_step[row] = True
                    else:
                        converged[instance] = False
                if not ok_step.all():
                    # Even the scalar rescue failed: drop the instance.
                    alive = alive[ok_step]
                    x_next = x_next[ok_step]
                    prevpad = prevpad[ok_step]
                    state = state[ok_step]
                    if not alive.size:
                        break
            xpad = np.zeros((alive.size, size + 1))
            xpad[:, :size] = x_next
            # Update trapezoidal history currents at the accepted solution.
            if integrator == "trapezoidal" and state.shape[1]:
                state = plan.cap_state_update(xpad, prevpad, dt_s, integrator, state)
            samples[alive, step] = x_next
            prevpad = xpad
            x_alive = x_next

        samples[~converged] = np.nan

        return TransientMCResult(
            samples=samples,
            dt_s=dt_s,
            converged=converged,
            fallback=fallback,
            node_index=self.node_index,
            branch_index=self.branch_index,
        )

    # -- scalar fallbacks --------------------------------------------------------
    def _scalar_system(
        self, cache: dict, variation: FETVariation, instance: int
    ):
        """The perturbed scalar system of one instance (cached per run)."""
        system = cache.get(instance)
        if system is None:
            system = perturbed_circuit(
                self.circuit, variation, instance
            ).build_system()
            cache[instance] = system
        return system
