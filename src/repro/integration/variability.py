"""Monte-Carlo CNFET array variability: the 10,000-device statistics.

Park et al. (the paper's Ref. [22]) measured >10,000 CNT-FETs fabricated
blindly on self-assembled sites — "for the first time a statistical
analysis ... was available".  This module regenerates that kind of
dataset synthetically: each device receives a random number of tubes;
each tube is semiconducting with the material purity, has a
diameter-dependent on-current, and metallic tubes short the channel with
a gate-independent ohmic conductance.  Aggregating over tubes yields the
device-level I_on, I_off and on/off-ratio distributions, and the pass
fraction against a spec.

Sampling runs through the batched sweep engine
(:class:`repro.circuit.sweep.SweepPlan`): devices are drawn in
vectorised blocks, each block from its own substream spawned from the
single user seed, so an array is reproducible seed-for-seed regardless
of chunk size, worker count, or serial vs. process-pool execution.  The
scalar :meth:`CNFETArrayModel.sample_device` survives as the one-device
reference implementation of the same distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.sweep import (
    ExecutionPolicy,
    SweepPlan,
    ensure_seed,
    lognormal_unit_mean,
)
from repro.physics.constants import CNT_QUANTUM_RESISTANCE_OHM

__all__ = [
    "ArraySpec",
    "DeviceSample",
    "ArrayResult",
    "CNFETArrayModel",
    "array_drive_sigma",
]


@dataclass(frozen=True)
class ArraySpec:
    """Pass/fail specification for a device in the array."""

    min_on_current_a: float = 1e-6
    min_on_off_ratio: float = 1e3


@dataclass(frozen=True)
class DeviceSample:
    """One synthesized device."""

    n_tubes: int
    n_metallic: int
    i_on_a: float
    i_off_a: float

    @property
    def on_off_ratio(self) -> float:
        return self.i_on_a / self.i_off_a if self.i_off_a > 0.0 else np.inf

    @property
    def is_open(self) -> bool:
        return self.n_tubes == 0

    @property
    def is_shorted(self) -> bool:
        return self.n_metallic > 0


class ArrayResult:
    """Aggregate statistics of a synthesized array.

    Array-backed: the four per-device columns (tube count, metallic
    count, on/off currents) are the storage, so every statistic below is
    one vectorised pass even for Park-scale arrays.  The ``devices``
    tuple of :class:`DeviceSample` objects is materialised lazily for
    callers that want per-device records.  An empty array (``n_devices
    == 0``) is a valid result whose fractions are all 0.0.
    """

    def __init__(
        self,
        devices: tuple[DeviceSample, ...] | None = None,
        spec: ArraySpec | None = None,
        *,
        n_tubes: np.ndarray | None = None,
        n_metallic: np.ndarray | None = None,
        i_on_a: np.ndarray | None = None,
        i_off_a: np.ndarray | None = None,
    ):
        self.spec = spec or ArraySpec()
        if devices is not None:
            self._devices: tuple[DeviceSample, ...] | None = tuple(devices)
            self._n_tubes = np.array([d.n_tubes for d in self._devices], dtype=np.intp)
            self._n_metallic = np.array(
                [d.n_metallic for d in self._devices], dtype=np.intp
            )
            self._i_on = np.array([d.i_on_a for d in self._devices], dtype=float)
            self._i_off = np.array([d.i_off_a for d in self._devices], dtype=float)
        else:
            if n_tubes is None or n_metallic is None or i_on_a is None or i_off_a is None:
                raise ValueError("give either devices or all four column arrays")
            self._devices = None
            self._n_tubes = np.asarray(n_tubes, dtype=np.intp)
            self._n_metallic = np.asarray(n_metallic, dtype=np.intp)
            self._i_on = np.asarray(i_on_a, dtype=float)
            self._i_off = np.asarray(i_off_a, dtype=float)
            lengths = {
                arr.shape for arr in (self._n_tubes, self._n_metallic, self._i_on, self._i_off)
            }
            if len(lengths) != 1 or self._n_tubes.ndim != 1:
                raise ValueError("column arrays must share one 1-D shape")

    @property
    def devices(self) -> tuple[DeviceSample, ...]:
        if self._devices is None:
            self._devices = tuple(
                DeviceSample(
                    n_tubes=int(t), n_metallic=int(m), i_on_a=float(on), i_off_a=float(off)
                )
                for t, m, on, off in zip(
                    self._n_tubes, self._n_metallic, self._i_on, self._i_off
                )
            )
        return self._devices

    @property
    def n_devices(self) -> int:
        return int(self._n_tubes.size)

    @property
    def open_fraction(self) -> float:
        """Fraction of devices with no tube at all (0.0 for an empty array)."""
        if self.n_devices == 0:
            return 0.0
        return float(np.count_nonzero(self._n_tubes == 0) / self.n_devices)

    @property
    def shorted_fraction(self) -> float:
        """Fraction of devices with >= 1 metallic tube (0.0 for an empty array)."""
        if self.n_devices == 0:
            return 0.0
        return float(np.count_nonzero(self._n_metallic > 0) / self.n_devices)

    @property
    def pass_fraction(self) -> float:
        """Fraction meeting the spec (0.0 for an empty array)."""
        if self.n_devices == 0:
            return 0.0
        return float(np.count_nonzero(self._pass_mask()) / self.n_devices)

    def _pass_mask(self) -> np.ndarray:
        return (
            (self._n_tubes > 0)
            & (self._i_on >= self.spec.min_on_current_a)
            & (self.on_off_ratios() >= self.spec.min_on_off_ratio)
        )

    def on_currents_a(self) -> np.ndarray:
        return self._i_on.copy()

    def on_off_ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self._i_off > 0.0, self._i_on / self._i_off, np.inf)


def array_drive_sigma(array: ArrayResult, clip: float = 0.5) -> float:
    """Relative on-current spread of an array's conducting devices.

    This is the drive-strength coefficient of variation the array
    statistics predict for a logic transistor built from the same
    material — the bridge from tube-level Monte Carlo to circuit-level
    :class:`repro.circuit.sweep.FETVariation` draws (both the DC
    switching-threshold ladder and the transient delay distribution in
    :mod:`repro.experiments.integration_stats` feed on it).  Clipped at
    ``clip`` to keep the lognormal drive model well-posed; 0.0 when
    fewer than two devices conduct.
    """
    on = array.on_currents_a()
    conducting = on[on > 0.0]
    if conducting.size < 2:
        return 0.0
    return float(min(conducting.std() / conducting.mean(), clip))


def _sample_block(params_block, rng, model: "CNFETArrayModel"):
    """Vectorised block kernel: draw ``len(params_block)`` devices at once.

    Returns one ``(n_tubes, n_metallic, i_on, i_off)`` row per device.
    Per-tube lognormal draws are flattened across the block and summed
    back per device with a cumulative-sum segment reduction.
    """
    count = len(params_block)
    n_tubes = rng.poisson(model.mean_tubes_per_device, size=count)
    n_metallic = rng.binomial(n_tubes, 1.0 - model.semiconducting_purity)
    n_semi = n_tubes - n_metallic

    sigma = max(model.on_current_sigma_fraction, 1e-9)
    draws = model.mean_on_current_per_tube_a * lognormal_unit_mean(
        rng, sigma, int(n_semi.sum())
    )
    ends = np.cumsum(n_semi)
    csum = np.concatenate(([0.0], np.cumsum(draws)))
    i_semi_on = csum[ends] - csum[ends - n_semi]
    i_semi_off = n_semi * model.semiconducting_off_current_a

    i_metal = n_metallic * (model.read_voltage_v / model.metallic_resistance_ohm)
    rows = np.empty((count, 4))
    rows[:, 0] = n_tubes
    rows[:, 1] = n_metallic
    rows[:, 2] = i_semi_on + i_metal
    rows[:, 3] = i_semi_off + i_metal
    return rows


def _array_entry_validator(entry) -> bool:
    """Merge-boundary schema of one device row from :func:`_sample_block`.

    ``(n_tubes, n_metallic, i_on, i_off)`` — finite floats with the
    count ordering ``n_tubes >= n_metallic >= 0``; rejected rows force a
    chunk retry instead of poisoning the stacked array.
    """
    return (
        isinstance(entry, np.ndarray)
        and entry.shape == (4,)
        and entry.dtype.kind == "f"
        and bool(np.all(np.isfinite(entry)))
        and bool(entry[0] >= entry[1] >= 0.0)
    )


class CNFETArrayModel:
    """Synthesizes CNFET arrays tube-by-tube.

    Parameters
    ----------
    semiconducting_purity:
        Probability a placed tube is semiconducting (post-sorting).
    mean_tubes_per_device:
        Poisson mean of the per-device tube count (set by placement).
    mean_on_current_per_tube_a / on_current_sigma_fraction:
        Log-normal-ish on-current distribution per semiconducting tube,
        driven by diameter/contact variability.
    semiconducting_off_current_a:
        Off-state leakage per semiconducting tube.
    metallic_resistance_ohm:
        Two-terminal resistance of a metallic tube (quantum limit x
        scattering factor); conducts identically in on and off states.
    """

    def __init__(
        self,
        semiconducting_purity: float = 0.99,
        mean_tubes_per_device: float = 3.0,
        mean_on_current_per_tube_a: float = 10e-6,
        on_current_sigma_fraction: float = 0.25,
        semiconducting_off_current_a: float = 10e-12,
        metallic_resistance_ohm: float = 3.0 * CNT_QUANTUM_RESISTANCE_OHM,
        read_voltage_v: float = 0.5,
    ):
        if not 0.0 <= semiconducting_purity <= 1.0:
            raise ValueError("purity must be in [0, 1]")
        if mean_tubes_per_device <= 0.0:
            raise ValueError("mean tubes per device must be positive")
        if mean_on_current_per_tube_a <= 0.0 or semiconducting_off_current_a <= 0.0:
            raise ValueError("current scales must be positive")
        if on_current_sigma_fraction < 0.0:
            raise ValueError("sigma fraction must be >= 0")
        if metallic_resistance_ohm <= 0.0 or read_voltage_v <= 0.0:
            raise ValueError("metallic resistance and read voltage must be positive")
        self.semiconducting_purity = semiconducting_purity
        self.mean_tubes_per_device = mean_tubes_per_device
        self.mean_on_current_per_tube_a = mean_on_current_per_tube_a
        self.on_current_sigma_fraction = on_current_sigma_fraction
        self.semiconducting_off_current_a = semiconducting_off_current_a
        self.metallic_resistance_ohm = metallic_resistance_ohm
        self.read_voltage_v = read_voltage_v

    def sample_device(self, rng: np.random.Generator) -> DeviceSample:
        """Draw one device — the scalar reference for :func:`_sample_block`."""
        n_tubes = int(rng.poisson(self.mean_tubes_per_device))
        if n_tubes == 0:
            return DeviceSample(n_tubes=0, n_metallic=0, i_on_a=0.0, i_off_a=0.0)
        n_metallic = int(rng.binomial(n_tubes, 1.0 - self.semiconducting_purity))
        n_semi = n_tubes - n_metallic
        if n_semi > 0:
            sigma = max(self.on_current_sigma_fraction, 1e-9)
            draws = self.mean_on_current_per_tube_a * lognormal_unit_mean(
                rng, sigma, n_semi
            )
            i_semi_on = float(draws.sum())
            i_semi_off = n_semi * self.semiconducting_off_current_a
        else:
            i_semi_on = i_semi_off = 0.0
        i_metal = n_metallic * self.read_voltage_v / self.metallic_resistance_ohm
        return DeviceSample(
            n_tubes=n_tubes,
            n_metallic=n_metallic,
            i_on_a=i_semi_on + i_metal,
            i_off_a=i_semi_off + i_metal,
        )

    def sample_array(
        self,
        n_devices: int = 10000,
        spec: ArraySpec | None = None,
        seed: int | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> ArrayResult:
        """Synthesize an array the size of the Park et al. dataset.

        Devices are drawn in vectorised substream blocks through the
        sweep engine: the result depends only on ``seed`` and
        ``n_devices`` — never on the ``policy``'s ``chunk_size``
        (execution granularity) or ``workers`` (optional process pool).
        """
        if n_devices < 1:
            raise ValueError("need at least one device")
        sweep = SweepPlan(
            _sample_block,
            vectorized=True,
            payload=self,
            validate=_array_entry_validator,
        )
        rows = np.asarray(
            sweep.run(
                range(n_devices),
                seed=ensure_seed(seed),
                policy=policy,
            )
        )
        return ArrayResult(
            spec=spec or ArraySpec(),
            n_tubes=rows[:, 0],
            n_metallic=rows[:, 1],
            i_on_a=rows[:, 2],
            i_off_a=rows[:, 3],
        )
