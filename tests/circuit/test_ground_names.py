"""Every circuit result type reads every ground alias as 0 V.

All seven also reject a name the circuit does not have with the same
error, which is both a ``CircuitError`` and a ``KeyError``.
"""

import numpy as np
import pytest

from repro.circuit.ac import ac_analysis, ac_monte_carlo
from repro.circuit.dc import dc_sweep, operating_point
from repro.circuit.elements import GROUND_NAMES
from repro.circuit.netlist import Circuit, CircuitError, UnknownName
from repro.circuit.sweep import CircuitMonteCarlo, CircuitTransientMC, FETVariation
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC
from repro.devices.base import PType
from repro.devices.empirical import AlphaPowerFET

T_STOP = 5e-11
DT = 1e-11
FREQUENCIES = [1e6, 1e8, 1e10]


def _inverter():
    circuit = Circuit("inverter")
    circuit.add_voltage_source("VDD", "vdd", "0", DC(1.0))
    circuit.add_voltage_source("VIN", "in", "0", DC(0.0))
    fet = AlphaPowerFET()
    circuit.add_fet("MP", "out", "in", "vdd", PType(fet))
    circuit.add_fet("MN", "out", "in", "0", fet)
    circuit.add_capacitor("CL", "out", "0", 1e-15)
    return circuit


# result type -> (run, shape of a node's trace)
RESULTS = {
    "OperatingPointResult": (lambda c: operating_point(c), ()),
    "SweepResult": (lambda c: dc_sweep(c, "VIN", [0.0, 0.5, 1.0]), (3,)),
    "TransientResult": (lambda c: transient(c, T_STOP, DT), (6,)),
    "MonteCarloResult": (lambda c: CircuitMonteCarlo(c).run(n_instances=2), (2,)),
    "TransientMCResult": (
        lambda c: CircuitTransientMC(c).run(n_instances=2, t_stop_s=T_STOP, dt_s=DT),
        (2, 6),
    ),
    "ACResult": (lambda c: ac_analysis(c, "VIN", FREQUENCIES), (3,)),
    "BatchedACResult": (
        lambda c: ac_monte_carlo(c, "VIN", FREQUENCIES, FETVariation.nominal(2, 2)),
        (2, 3),
    ),
}


@pytest.fixture(scope="module")
def results():
    return {name: run(_inverter()) for name, (run, _) in RESULTS.items()}


@pytest.mark.parametrize("alias", sorted(GROUND_NAMES))
@pytest.mark.parametrize("result_type", sorted(RESULTS))
def test_ground_alias_reads_zero(results, result_type, alias):
    result = results[result_type]
    assert type(result).__name__ == result_type
    voltage = result.voltage(alias)
    assert np.shape(voltage) == RESULTS[result_type][1]
    assert np.all(np.asarray(voltage) == 0.0)
    # A real node has the same shape.
    assert np.shape(result.voltage("out")) == np.shape(voltage)


@pytest.mark.parametrize("result_type", sorted(RESULTS))
def test_unknown_names_raise_one_error(results, result_type):
    result = results[result_type]
    lookups = {
        "node": (result.voltage, result.transfer),
        "voltage source": (result.source_current,),
    }
    for kind, functions in lookups.items():
        for lookup in functions:
            with pytest.raises(UnknownName, match=f"^unknown {kind} 'nope'$") as info:
                lookup("nope")
            assert isinstance(info.value, CircuitError)
            assert isinstance(info.value, KeyError)
