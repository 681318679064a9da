"""The benchmark still resolves every program name it wraps or calls.

``perfbench/tracing.py`` wraps named functions and methods of the
circuit core (``solver.newton_solve``, ``solver.solve_dc``,
``solver.splu``, ``solver.dgesv``, ``sweep._BatchedNewtonEngine``,
``continuation.solve_dc_robust``, ``sweep._run_chunk``,
``resilience.run_supervised``, ...) and ``perfbench/checks.py``
replays transient Monte Carlo rows through
``MNASystem.evaluate_dense``/``update_capacitor_state`` on
``perturbed_circuit`` clones.  A rename under ``src/`` breaks the
benchmark, not the program, so this smoke test runs both in a fresh
interpreter (the tracer rebinds module attributes process-wide).  A
plain DC Monte Carlo run must reach the sweep layer too: every engine
run is a supervised sweep.  A DC solve on a ``SurrogateFET`` and one on
an ``AlphaPowerFET`` must each raise the device counters, which the
tracer takes by wrapping the models' own ``linearize`` methods.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing

tracer = tracing.install()
tracer.active = True

from checks import MNA_TOLERANCE, _check_transient_kcl
from workloads import MonteCarlo
from repro.circuit.sweep import CircuitMonteCarlo, CircuitTransientMC, FETVariation
from repro.circuit.waveforms import Pulse
from repro.devices.empirical import AlphaPowerFET
from repro.experiments.cascade import build_inverter_chain

stimulus = Pulse(v1=0.0, v2=1.0, delay_s=2e-11, rise_s=1e-11, fall_s=1e-11,
                 width_s=4e-11, period_s=0.0)
chain = build_inverter_chain(AlphaPowerFET(), n_stages=2, input_waveform=stimulus)
engine = CircuitTransientMC(chain)
variation = FETVariation.sample(2, len(engine.fet_names), seed=3, drive_sigma=0.1)
result = engine.run(variation, 1e-10, 1e-11)
tracer.active = False
assert result.converged.all(), result.converged
item = MonteCarlo("smoke", chain, variation, result, transient=True)
worst = max(_check_transient_kcl(item, i) for i in range(2))
assert worst <= MNA_TOLERANCE, worst
metrics = tracer.metrics()
for name in ("newton.solves", "assembly.calls", "assembly.rows", "solve.dense",
             "devices.linearize_points"):
    assert metrics[name] > 0, (name, metrics)

tracer.active = True
CircuitMonteCarlo(chain).run(variation)
tracer.active = False
after = tracer.metrics()
for name in ("sweep.runs", "sweep.chunks"):
    assert after[name] > metrics[name], (name, metrics[name], after[name])

# The analytic linearize overrides stay visible to the
# device counters: one solve on a surrogate and one on the closed form.
from repro.circuit import operating_point
from repro.circuit.waveforms import DC
from repro.devices.surrogate import GridSpec, compile_surrogate

surrogate = compile_surrogate(
    AlphaPowerFET(), GridSpec(initial_points=(8, 8), max_refinements=0)
)
for device in (surrogate, AlphaPowerFET()):
    before = tracer.metrics()
    tracer.active = True
    operating_point(build_inverter_chain(device, n_stages=2, input_waveform=DC(0.4)))
    tracer.active = False
    solved = tracer.metrics()
    for name in ("devices.linearize_calls", "devices.linearize_points"):
        assert solved[name] > before[name], (type(device).__name__, name)
print("ok")
"""


def test_tracer_installs_and_transient_kcl_check_passes():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    env = {
        **os.environ,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_SURROGATE_CACHE": "off",
    }
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().endswith("ok")
