"""Cascaded logic: level restoration vs level collapse (Fig. 2's corollary).

The paper: "the dynamic behavior of cascaded logic circuits based on
FETs without saturation would be difficult to predict, as there are no
defined logical 'high' and 'low' levels and the transition is very
smooth."  This experiment drives a chain of inverters with a pulse on
the package's transient simulator and measures the voltage swing
delivered by each stage:

* **saturating devices** regenerate: every stage snaps back to the
  rails, so the swing is flat (~VDD) along the chain;
* **non-saturating devices** attenuate: each stage multiplies the swing
  by its sub-unity gain, so levels collapse geometrically and logic
  values become undefined after a few stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse
from repro.devices.base import FETModel, PType
from repro.experiments.fig2 import non_saturating_fet, saturating_fet

__all__ = [
    "CascadeResult",
    "run_cascade",
    "build_inverter_chain",
    "physical_saturating_fet",
]

VDD = 1.0
N_STAGES = 4
STAGE_LOAD_F = 1e-15


def physical_saturating_fet() -> FETModel:
    """The paper's actual saturating device: a surrogate-compiled CNT-FET.

    The ballistic :class:`~repro.devices.cntfet.CNTFET` benchmark device
    compiled into a :class:`~repro.devices.surrogate.SurrogateFET` —
    physically grounded I-V with spline-cheap evaluation, which is what
    makes the ``--physical`` experiment stack affordable inside the
    transient Newton loop.
    """
    from repro.devices.cntfet import CNTFET

    return CNTFET.reference_device().surrogate()


def build_inverter_chain(
    nfet: FETModel,
    n_stages: int = N_STAGES,
    vdd: float = VDD,
    load_f: float = STAGE_LOAD_F,
    input_waveform=None,
) -> Circuit:
    """A chain of identical complementary inverters, per-stage loads."""
    if n_stages < 1:
        raise ValueError(f"need at least one stage, got {n_stages}")
    pfet = PType(nfet)
    circuit = Circuit(f"chain{n_stages}")
    circuit.add_voltage_source("VDD", "vdd", "0", DC(vdd))
    circuit.add_voltage_source("VIN", "s0", "0", input_waveform or DC(0.0))
    for stage in range(n_stages):
        node_in, node_out = f"s{stage}", f"s{stage + 1}"
        circuit.add_fet(f"MP{stage}", node_out, node_in, "vdd", pfet)
        circuit.add_fet(f"MN{stage}", node_out, node_in, "0", nfet)
        circuit.add_capacitor(f"C{stage}", node_out, "0", load_f)
    return circuit


@dataclass(frozen=True)
class CascadeResult:
    """Per-stage voltage swings of both chains."""

    stage_swings_sat: tuple[float, ...]
    stage_swings_lin: tuple[float, ...]
    vdd: float

    @property
    def lin_attenuation_per_stage(self) -> float:
        """Geometric mean swing ratio of successive non-saturating stages."""
        swings = np.asarray(self.stage_swings_lin)
        ratios = swings[1:] / swings[:-1]
        return float(np.exp(np.mean(np.log(ratios))))

    def rows(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        for i, swing in enumerate(self.stage_swings_sat, start=1):
            out.append((f"saturating: stage {i} swing [V]", swing))
        for i, swing in enumerate(self.stage_swings_lin, start=1):
            out.append((f"non-saturating: stage {i} swing [V]", swing))
        out.append(("non-saturating attenuation / stage", self.lin_attenuation_per_stage))
        return out


def _stage_swings(circuit: Circuit, n_stages: int, t_stop: float, dt: float):
    # Backward Euler: trapezoidal rings on the sharp stage transitions
    # (20 ps edges), which would inflate the measured swings past VDD.
    result = transient(circuit, t_stop, dt, integrator="backward-euler")
    swings = []
    for stage in range(1, n_stages + 1):
        settled = result.voltage(f"s{stage}")[result.time_s > t_stop * 0.1]
        swings.append(float(settled.max() - settled.min()))
    return tuple(swings)


def run_cascade(n_stages: int = N_STAGES, device_stack: str = "empirical") -> CascadeResult:
    """Drive both chains with a full-swing pulse and record stage swings.

    ``device_stack="empirical"`` reproduces Fig. 2's behavioural
    models; ``"physical"`` swaps the saturating chain onto the
    surrogate-compiled ballistic CNT-FET (the measured non-saturating
    GNR behaviour stays empirical — that is the paper's point), which
    the spline surrogate makes affordable inside the transient loop.
    """
    if device_stack not in ("empirical", "physical"):
        raise ValueError(f"unknown device stack {device_stack!r}")
    period = 4e-9
    stimulus = Pulse(
        v1=0.0, v2=VDD, delay_s=0.2e-9, rise_s=20e-12, fall_s=20e-12,
        width_s=period / 2.0, period_s=period,
    )
    sat_device = (
        physical_saturating_fet() if device_stack == "physical" else saturating_fet()
    )
    chain_sat = build_inverter_chain(
        sat_device, n_stages=n_stages, input_waveform=stimulus
    )
    chain_lin = build_inverter_chain(
        non_saturating_fet(), n_stages=n_stages, input_waveform=stimulus
    )
    dt = 10e-12
    swings_sat = _stage_swings(chain_sat, n_stages, 2 * period, dt)
    swings_lin = _stage_swings(chain_lin, n_stages, 2 * period, dt)
    return CascadeResult(
        stage_swings_sat=swings_sat, stage_swings_lin=swings_lin, vdd=VDD
    )
