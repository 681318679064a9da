"""Timing and energy metrics for logic transients.

Extracts propagation delays and switching energy from
:class:`repro.circuit.TransientResult` waveforms, and provides the
first-order CV/I delay estimator used to compare device technologies
before running full transients.

Monte-Carlo-scale timing rides the batched transient engine
(:class:`repro.circuit.sweep.CircuitTransientMC`) through one helper
that time-steps every varied copy of a switching inverter in a single
lockstep batch (actual switching waveforms, not CV/I) and times each
copy.  Both callers return :class:`DelayEnergyDistribution` blocks:
:func:`delay_energy_distribution` for a sampled device spread
(:class:`~repro.circuit.sweep.FETVariation`) — the paper's delay and
energy-per-transition distributions — and
:func:`corner_sweep_and_distribution` for named slow/typical/fast
corners (with ``labels``) together with such a spread, from one run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.cells import build_inverter
from repro.circuit.sweep import CircuitTransientMC, ExecutionPolicy, FETVariation
from repro.circuit.transient import TransientResult
from repro.circuit.waveforms import Pulse
from repro.devices.base import FETModel

__all__ = [
    "DelayMetrics",
    "DelayEnergyDistribution",
    "propagation_delays",
    "supply_energy_j",
    "cv_over_i_delay_s",
    "delay_energy_distribution",
    "corner_sweep_and_distribution",
]


@dataclass(frozen=True)
class DelayMetrics:
    """50 %-crossing propagation delays of one logic transition pair."""

    tp_hl_s: float
    tp_lh_s: float

    @property
    def average_s(self) -> float:
        return 0.5 * (self.tp_hl_s + self.tp_lh_s)


def _crossings(time_s: np.ndarray, signal: np.ndarray, level: float, rising: bool):
    above = signal > level
    if rising:
        mask = above[1:] & ~above[:-1]
    else:
        mask = ~above[1:] & above[:-1]
    indices = np.nonzero(mask)[0]
    times = []
    for i in indices:
        v0, v1 = signal[i], signal[i + 1]
        if v1 == v0:
            times.append(float(time_s[i]))
            continue
        t = (level - v0) / (v1 - v0)
        times.append(float(time_s[i] + t * (time_s[i + 1] - time_s[i])))
    return times


def propagation_delays(
    result: TransientResult,
    input_node: str,
    output_node: str,
    vdd: float,
) -> DelayMetrics:
    """tpHL / tpLH between the 50 % points of input and output waveforms."""
    t = result.time_s
    v_in = result.voltage(input_node)
    v_out = result.voltage(output_node)
    mid = vdd / 2.0
    in_rise = _crossings(t, v_in, mid, rising=True)
    in_fall = _crossings(t, v_in, mid, rising=False)
    out_fall = _crossings(t, v_out, mid, rising=False)
    out_rise = _crossings(t, v_out, mid, rising=True)
    tp_hl = _first_delay(in_rise, out_fall)
    tp_lh = _first_delay(in_fall, out_rise)
    if tp_hl is None or tp_lh is None:
        raise ValueError("waveforms do not contain a full output transition pair")
    return DelayMetrics(tp_hl_s=tp_hl, tp_lh_s=tp_lh)


def _first_delay(input_times, output_times) -> float | None:
    for t_in in input_times:
        later = [t for t in output_times if t > t_in]
        if later:
            return later[0] - t_in
    return None


def supply_energy_j(
    result: TransientResult,
    supply_source: str,
    vdd: float,
    t_start_s: float = 0.0,
    t_stop_s: float | None = None,
) -> float:
    """Energy drawn from the supply over a window: E = VDD * int i dt [J].

    The supply source current is negative when delivering power (branch
    convention), hence the sign flip.
    """
    t = result.time_s
    i = -result.source_current(supply_source)
    t_stop_s = float(t[-1]) if t_stop_s is None else t_stop_s
    mask = (t >= t_start_s) & (t <= t_stop_s)
    if mask.sum() < 2:
        raise ValueError("energy window contains fewer than 2 samples")
    return float(vdd * np.trapezoid(i[mask], t[mask]))


def cv_over_i_delay_s(
    device: FETModel, load_f: float, vdd: float
) -> float:
    """First-order switching delay C V / I_on [s] of a device driving a load."""
    if load_f <= 0.0 or vdd <= 0.0:
        raise ValueError("load and vdd must be positive")
    i_on = device.current(vdd, vdd)
    if i_on <= 0.0:
        raise ValueError("device delivers no on-current at (vdd, vdd)")
    return load_f * vdd / i_on


# ---------------------------------------------------------------------------
# Transient timing at Monte Carlo scale (batched CircuitTransientMC).
# ---------------------------------------------------------------------------


def _switching_inverter(device: FETModel, load_f: float, vdd: float, t_stop_s: float):
    """A loaded inverter driven by one full-swing pulse inside ``t_stop_s``."""
    stimulus = Pulse(
        v1=0.0,
        v2=vdd,
        delay_s=0.05 * t_stop_s,
        rise_s=0.005 * t_stop_s,
        fall_s=0.005 * t_stop_s,
        width_s=0.45 * t_stop_s,
        period_s=0.0,
    )
    return build_inverter(
        device, vdd=vdd, load_capacitance_f=load_f, input_waveform=stimulus
    )


@dataclass(frozen=True)
class DelayEnergyDistribution:
    """Per-instance switching delays and energies of a batched transient.

    ``valid`` marks instances that converged and produced a full output
    transition pair; the summary statistics run over those only.
    ``labels`` names each instance of a corner sweep, in input order
    (None for a sampled distribution).
    """

    tp_hl_s: np.ndarray
    tp_lh_s: np.ndarray
    energies_j: np.ndarray
    valid: np.ndarray
    labels: tuple[str, ...] | None = None

    @property
    def average_delays_s(self) -> np.ndarray:
        return 0.5 * (self.tp_hl_s + self.tp_lh_s)

    def _valid(self, values: np.ndarray) -> np.ndarray:
        values = values[self.valid]
        if values.size == 0:
            raise ValueError("no valid instances to summarise")
        return values

    @property
    def delay_mean_s(self) -> float:
        return float(self._valid(self.average_delays_s).mean())

    @property
    def delay_sigma_s(self) -> float:
        return float(self._valid(self.average_delays_s).std())

    @property
    def energy_mean_j(self) -> float:
        return float(self._valid(self.energies_j).mean())

    @property
    def energy_sigma_j(self) -> float:
        return float(self._valid(self.energies_j).std())

    def spread(self) -> float:
        """Max/min average-delay ratio across the valid instances."""
        delays = self._valid(self.average_delays_s)
        return float(delays.max() / delays.min())


# The switching inverter's load [F], supply [V], stop time and step [s].
_LOAD_F, _VDD, _T_STOP_S, _DT_S = 10e-15, 1.0, 2e-9, 5e-12


def _timed_switching(
    device: FETModel,
    variation_for,
    load_f: float,
    vdd: float,
    t_stop_s: float,
    dt_s: float,
    policy: ExecutionPolicy | None,
) -> DelayEnergyDistribution:
    """Time-step every varied copy of the switching inverter and time it.

    ``variation_for(n_fets)`` builds the :class:`~repro.circuit.sweep.
    FETVariation` for the inverter's FET count; all its rows run as one
    batched :class:`~repro.circuit.sweep.CircuitTransientMC` transient
    run under ``policy``, and each instance is timed on its own
    waveforms.
    """
    cell = _switching_inverter(device, load_f, vdd, t_stop_s)
    engine = CircuitTransientMC(cell.circuit)
    variation = variation_for(len(engine.fet_names))
    result = engine.run(variation, t_stop_s, dt_s, policy=policy)
    n = variation.n_instances
    tp_hl = np.full(n, np.nan)
    tp_lh = np.full(n, np.nan)
    energy = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(result.converged):
        waves = result.instance_waveforms(i)
        try:
            delays = propagation_delays(waves, cell.input_node, cell.output_node, vdd)
        except ValueError:
            continue
        tp_hl[i], tp_lh[i] = delays.tp_hl_s, delays.tp_lh_s
        energy[i] = supply_energy_j(waves, cell.vdd_source, vdd)
        valid[i] = True
    return DelayEnergyDistribution(
        tp_hl_s=tp_hl, tp_lh_s=tp_lh, energies_j=energy, valid=valid
    )


def delay_energy_distribution(
    device: FETModel,
    n_instances: int,
    *,
    drive_sigma: float,
    vth_sigma_v: float = 0.0,
    seed: int,
    load_f: float = _LOAD_F,
    vdd: float = _VDD,
    t_stop_s: float = _T_STOP_S,
    dt_s: float = _DT_S,
    policy: ExecutionPolicy | None = None,
) -> DelayEnergyDistribution:
    """Delay / energy-per-transition distributions of a varied inverter.

    Draws an ``n_instances``-row :class:`~repro.circuit.sweep.
    FETVariation` (lognormal drive spread, normal threshold spread) and
    time-steps every fabricated copy of the inverter through one
    switching cycle in a single batched run — the transient counterpart
    of the DC switching-threshold ladder in
    :func:`repro.experiments.integration_stats.inverter_variability_sigma_v`.
    Deterministic in ``seed`` regardless of chunking or pooling.
    """

    def variation_for(n_fets: int) -> FETVariation:
        return FETVariation.sample(
            n_instances,
            n_fets,
            seed=seed,
            drive_sigma=drive_sigma,
            vth_sigma_v=vth_sigma_v,
        )

    return _timed_switching(
        device, variation_for, load_f, vdd, t_stop_s, dt_s, policy
    )


def corner_sweep_and_distribution(
    device: FETModel,
    corners,
    n_instances: int,
    *,
    drive_sigma: float,
    vth_sigma_v: float = 0.0,
    seed: int,
) -> tuple[DelayEnergyDistribution, DelayEnergyDistribution]:
    """Switching delays/energy at every process corner and over a device spread.

    ``corners`` maps a label to a ``(drive_scale, vth_shift_v)`` pair
    applied uniformly to both inverter FETs (slow/typical/fast).  The
    first block carries the corner labels in input order; a corner that
    does not switch raises ``ValueError`` naming it.  The second block
    is what :func:`delay_energy_distribution` gives for ``n_instances``,
    the sigmas and ``seed`` at its default load, supply and time grid.
    The corner rows and the sampled rows are time-stepped as rows of one
    :class:`~repro.circuit.sweep.CircuitTransientMC` run; rows are
    independent, so each block is bitwise what a run of its rows alone
    gives.
    """
    items = [
        (str(label), float(scale), float(shift))
        for label, (scale, shift) in dict(corners).items()
    ]
    if not items:
        raise ValueError("need at least one corner")

    def variation_for(n_fets: int) -> FETVariation:
        sampled = FETVariation.sample(
            n_instances,
            n_fets,
            seed=seed,
            drive_sigma=drive_sigma,
            vth_sigma_v=vth_sigma_v,
        )
        return FETVariation(
            drive_scale=np.concatenate(
                ([[scale] * n_fets for _, scale, _ in items], sampled.drive_scale)
            ),
            vth_shift_v=np.concatenate(
                ([[shift] * n_fets for _, _, shift in items], sampled.vth_shift_v)
            ),
        )

    timed = _timed_switching(
        device, variation_for, _LOAD_F, _VDD, _T_STOP_S, _DT_S, None
    )
    for (label, _, _), valid in zip(items, timed.valid):
        if not valid:
            raise ValueError(
                f"corner {label!r} produced no full output transition pair"
            )

    def block(rows: slice, labels=None) -> DelayEnergyDistribution:
        return DelayEnergyDistribution(
            tp_hl_s=timed.tp_hl_s[rows],
            tp_lh_s=timed.tp_lh_s[rows],
            energies_j=timed.energies_j[rows],
            valid=timed.valid[rows],
            labels=labels,
        )

    n_corners = len(items)
    return (
        block(slice(None, n_corners), tuple(label for label, _, _ in items)),
        block(slice(n_corners, None)),
    )
