"""The one time-step loop against an independent sequential oracle.

:func:`scalar_oracle.sequential_march` steps one trial at a time over
the element-walking reference evaluator, with dict companion state.
Scalar :func:`~repro.circuit.transient.transient` and every
:class:`~repro.circuit.sweep.CircuitTransientMC` row must match it to
1e-9 at every sample, under both integrators.
"""

import numpy as np
import pytest

from repro.circuit.netlist import Circuit
from repro.circuit.sweep import CircuitTransientMC, FETVariation, perturbed_circuit
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain
from scalar_oracle import sequential_march

WAVEFORM_ATOL = 1e-9
INTEGRATORS = ("trapezoidal", "backward-euler")


def _pulse(t_stop_s):
    return Pulse(
        v1=0.0, v2=1.0, delay_s=0.1 * t_stop_s, rise_s=0.1 * t_stop_s,
        fall_s=0.1 * t_stop_s, width_s=0.4 * t_stop_s, period_s=0.0,
    )


def rc_circuit():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "a", "0", _pulse(2e-6))
    circuit.add_resistor("R1", "a", "b", 1e3)
    circuit.add_capacitor("C1", "b", "0", 1e-9)
    return circuit


def chain_circuit():
    return build_inverter_chain(
        AlphaPowerFET(), n_stages=3, input_waveform=_pulse(0.3e-9)
    )


# (circuit factory, t_stop, dt)
CASES = {
    "rc": (rc_circuit, 2e-6, 5e-8),
    "chain3": (chain_circuit, 0.3e-9, 1e-11),
}


@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_scalar_transient_matches_sequential_oracle(case, integrator):
    build, t_stop, dt = CASES[case]
    circuit = build()
    result = transient(circuit, t_stop, dt, integrator=integrator)
    oracle = sequential_march(circuit.build_system(), t_stop, dt, integrator)
    system = circuit.build_system()
    for node in circuit.node_names:
        column = oracle[:, system.node_index(node)]
        assert np.abs(result.voltage(node) - column).max() <= WAVEFORM_ATOL


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_transient_mc_rows_match_sequential_oracle(integrator):
    _, t_stop, dt = CASES["chain3"]
    engine = CircuitTransientMC(chain_circuit())
    variation = FETVariation.sample(
        3, len(engine.fet_names), seed=7, drive_sigma=0.2, vth_sigma_v=0.02
    )
    result = engine.run(variation, t_stop, dt, integrator=integrator)
    assert result.converged.all() and not result.fallback.any()
    for i in range(variation.n_instances):
        system = perturbed_circuit(engine.circuit, variation, i).build_system()
        oracle = sequential_march(system, t_stop, dt, integrator)
        assert np.abs(result.samples[i] - oracle).max() <= WAVEFORM_ATOL
