"""Bench FIG2: inverter voltage transfer curves (paper Fig. 2).

Runs the full SPICE study — output families, both VTCs on the
from-scratch MNA simulator, and the 10 fF-loaded transient — and asserts
the noise-margin collapse without current saturation.  A count gate
holds the transient marches of ``fig2`` and ``cascade`` to their device
bypass: each time step stamps its start point's device outputs from
the step before instead of linearizing that point again.
"""

from conftest import print_rows

from repro.circuit.assembly import StampPlan
from repro.devices.base import FETModel
from repro.experiments.cascade import run_cascade
from repro.experiments.fig2 import run_fig2

# Device calls per stamp evaluation over both runs: 1.0 when every
# evaluation linearizes, ~0.14 when each step reuses its start point's
# outputs (fig2 0.18, cascade 0.12).
MAX_DEVICE_CALL_SHARE = 0.25


def test_fig2_regeneration(benchmark):
    result = benchmark.pedantic(run_fig2, rounds=1, iterations=1)
    print_rows("Fig. 2 — inverters with/without saturation, VDD = 1 V", result.rows())

    # Saturating pair: near-ideal inverter, NM ~ 0.4 V both sides.
    assert result.metrics_sat.max_abs_gain > 5.0
    assert abs(result.metrics_sat.nm_low - 0.4) < 0.08
    assert abs(result.metrics_sat.nm_high - 0.4) < 0.08
    # Non-saturating pair: gain never reaches unity, NM ~ 0.
    assert result.metrics_lin.max_abs_gain < 1.0
    assert result.metrics_lin.nm_low == 0.0
    assert result.metrics_lin.nm_high == 0.0
    # DC burn through the transition.
    assert result.short_circuit_charge_ratio > 2.0


def _device_classes() -> list[type]:
    found, pending = [], [FETModel]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in found if "linearize" in cls.__dict__]


def test_marches_reuse_their_start_point_device_outputs(monkeypatch):
    calls = {"evaluate": 0, "linearize": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        StampPlan, "evaluate_many", counted(StampPlan.evaluate_many, "evaluate")
    )
    for cls in _device_classes():
        monkeypatch.setattr(cls, "linearize", counted(cls.linearize, "linearize"))
    rows = []
    for name, run in (("fig2", run_fig2), ("cascade", run_cascade)):
        before = dict(calls)
        run()
        evaluations = calls["evaluate"] - before["evaluate"]
        linearizations = calls["linearize"] - before["linearize"]
        rows.append((f"{name}: device calls / evaluations", linearizations / evaluations))
    share = calls["linearize"] / calls["evaluate"]
    rows.append(("both: device calls / evaluations", share))
    print_rows("Device bypass in the transient marches", rows)
    assert share <= MAX_DEVICE_CALL_SHARE
