"""Per-layer spans and work counts, installed from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(the table in ``perfbench/README.md``) and rebinds every module
attribute that still names an original, so ``from x import f`` call
sites see the wrapper too.  Nothing under ``src/`` changes and the
wrappers never touch an argument, a result or an RNG: a traced run's
outputs are bitwise those of an untraced one.

Span rules:

* a call opens a span only when no span of the same layer is open
  (the outermost call of a layer owns its time and its counts);
* a layer's self time is its span time minus the time of child spans;
* ``devices`` spans open only when the innermost open span is a circuit
  layer (``FETModel`` calls from a table fill or an analysis helper
  are not circuit device evaluation);
* ``solve`` spans open only for calls made from ``repro.circuit``.

Spans are kept in memory and written at the end as Chrome trace-event
JSON (open the file in https://ui.perfetto.dev or chrome://tracing).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "transport",
    "contacts",
    "tables",
    "devices",
    "assembly",
    "solve",
    "newton",
    "sweep",
    "ac",
    "integration",
    "analysis",
)
COUNTS = (
    "transport.calls",
    "transport.bias_points",
    "contacts.calls",
    "contacts.bias_points",
    "tables.compiles",
    "tables.disk_hits",
    "tables.fills",
    "tables.fill_points",
    "devices.linearize_calls",
    "devices.linearize_points",
    "assembly.calls",
    "assembly.rows",
    "solve.symbolic",
    "solve.numeric",
    "solve.dense",
    "newton.solves",
    "newton.iterations",
    "newton.rescues",
    "newton.unconverged",
    "sweep.runs",
    "sweep.chunks",
    "ac.frequencies",
)
CIRCUIT_LAYERS = frozenset({"assembly", "solve", "newton", "sweep", "ac"})

# Beyond this many spans the trace file keeps counting but stops
# recording events (self times and counts stay exact).
MAX_EVENTS = 200_000


class Tracer:
    """Span stack, per-layer self time, work counts and trace events."""

    def __init__(self) -> None:
        self.active = False
        self.depth: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [layer, start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.events: list[tuple] = []
        self.dropped = 0
        self.continuations: list[int] = []  # newton solves per open ladder

    def span(self, layer: str, name: str, fn, args, kwargs):
        depth = self.depth
        stack = self.stack
        depth[layer] += 1
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            depth[layer] -= 1
            duration = end - frame[1]
            self.self_s[layer] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if len(self.events) < MAX_EVENTS:
                self.events.append((name, layer, frame[1], duration))
            else:
                self.dropped += 1

    def chrome_trace(self, metadata: dict) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        origin = min((event[2] for event in self.events), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for name, layer, start, duration in self.events
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "dropped_events": self.dropped},
        }

    def write(self, path, metadata: dict) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(metadata), handle)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {name: int(self.counts[name]) for name in COUNTS}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


TRACER = Tracer()


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------


def _spanned(fn, layer: str, name: str, count=None, gate=None):
    """``fn`` under a ``layer`` span; ``count(tracer, args, kwargs, result)``
    runs after the outermost call of the layer returns."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (
            not tracer.active
            or tracer.depth[layer]
            or (gate is not None and not gate(tracer))
        ):
            return fn(*args, **kwargs)
        result = tracer.span(layer, name, fn, args, kwargs)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _counted(fn, count):
    """``fn`` with ``count(tracer, args, kwargs, result)`` after every call."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.active:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _rebind(original, wrapper, prefix: str = "repro") -> None:
    """Point every loaded ``prefix*`` module attribute naming ``original``
    at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(module, attr: str, make, prefix: str = "repro") -> None:
    original = getattr(module, attr)
    _rebind(original, make(original), prefix)


def _wrap_method(cls, attr: str, make, raw=None) -> None:
    """Wrap ``cls.attr`` (``raw`` overrides the function found there)."""
    original = cls.__dict__.get(attr) if raw is None else raw
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(make(original.__func__)))
    elif isinstance(original, staticmethod):
        setattr(cls, attr, staticmethod(make(original.__func__)))
    elif inspect.isfunction(original):
        setattr(cls, attr, make(original))


def _points(*arrays) -> int:
    """Broadcast size of bias arrays."""
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _bias_args(args, kwargs):
    vgs = args[1] if len(args) > 1 else kwargs.get("vgs_values", kwargs.get("vgs"))
    vds = args[2] if len(args) > 2 else kwargs.get("vds_values", kwargs.get("vds"))
    return vgs, vds


def _caller_in_circuit(_tracer) -> bool:
    # Frames: 0 = this gate, 1 = wrapper, 2 = the caller of the wrapper.
    return sys._getframe(2).f_globals.get("__name__", "").startswith("repro.circuit")


def _innermost_is_circuit(tracer) -> bool:
    return bool(tracer.stack) and tracer.stack[-1][0] in CIRCUIT_LAYERS


# -- transport -----------------------------------------------------------------


def _transport_count(kind: str):
    def count(tracer, args, kwargs, _result):
        if kind == "point":
            points = 1
        elif kind == "grid":
            vgs, vds = _bias_args(args, kwargs)
            points = int(np.size(vgs)) * int(np.size(vds))
        else:
            points = _points(*_bias_args(args, kwargs))
        tracer.counts["transport.calls"] += 1
        tracer.counts["transport.bias_points"] += points
        if tracer.depth["tables"]:
            tracer.counts["tables.fill_points"] += points

    return count


def _install_transport() -> None:
    from repro.transport import ballistic, tunneling

    solver = ballistic.TopOfBarrierSolver
    for attr, kind in (
        ("solve", "point"),
        ("current", "point"),
        ("currents", "elementwise"),
        ("solve_currents", "elementwise"),
        ("iv_surface", "grid"),
        ("grid_currents", "grid"),
    ):
        _wrap_method(
            solver,
            attr,
            lambda fn, a=attr, k=kind: _spanned(
                fn, "transport", f"TopOfBarrierSolver.{a}", _transport_count(k)
            ),
        )
    for attr in tunneling.__all__:
        if inspect.isfunction(getattr(tunneling, attr)):
            _wrap_function(
                tunneling,
                attr,
                lambda fn, a=attr: _spanned(
                    fn, "transport", f"tunneling.{a}", _transport_count("point")
                ),
            )


# -- contacts ------------------------------------------------------------------


def _contacts_count(elementwise: bool):
    def count(tracer, args, kwargs, _result):
        tracer.counts["contacts.calls"] += 1
        tracer.counts["contacts.bias_points"] += (
            _points(*_bias_args(args, kwargs)) if elementwise else 1
        )

    return count


def _install_contacts() -> None:
    from repro.devices.base import FETModel
    from repro.devices.contacts import SeriesResistanceFET

    _wrap_method(
        SeriesResistanceFET,
        "current",
        lambda fn: _spanned(
            fn, "contacts", "SeriesResistanceFET.current", _contacts_count(False)
        ),
    )
    # ``currents`` is inherited; wrap the inherited function on the subclass.
    _wrap_method(
        SeriesResistanceFET,
        "currents",
        lambda fn: _spanned(
            fn, "contacts", "SeriesResistanceFET.currents", _contacts_count(True)
        ),
        raw=FETModel.__dict__["currents"],
    )


# -- tables ----------------------------------------------------------------------


def _install_tables() -> None:
    from repro.devices import surrogate

    def compiles(tracer, _args, _kwargs, _result):
        tracer.counts["tables.compiles"] += 1

    def fills(tracer, _args, _kwargs, _result):
        tracer.counts["tables.fills"] += 1

    def disk_hits(tracer, _args, _kwargs, result):
        if result is not None:
            tracer.counts["tables.disk_hits"] += 1

    _wrap_function(
        surrogate,
        "compile_surrogate",
        lambda fn: _spanned(fn, "tables", "compile_surrogate", compiles),
    )
    _wrap_method(
        surrogate.TabulatedFET,
        "from_model",
        lambda fn: _spanned(fn, "tables", "TabulatedFET.from_model", fills),
    )
    # Private helpers of compile_surrogate, counted on every call.
    _wrap_function(surrogate, "_fill_table", lambda fn: _counted(fn, fills))
    _wrap_function(surrogate, "_load_cached", lambda fn: _counted(fn, disk_hits))


# -- devices ---------------------------------------------------------------------


def _devices_count(elementwise: bool):
    def count(tracer, args, kwargs, _result):
        tracer.counts["devices.linearize_calls"] += 1
        tracer.counts["devices.linearize_points"] += (
            _points(*_bias_args(args, kwargs)) if elementwise else 1
        )

    return count


def _all_subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _install_devices() -> None:
    from repro.devices.base import FETModel

    for cls in _all_subclasses(FETModel):
        for attr, count in (
            ("linearize", _devices_count(True)),
            ("linearize_point", _devices_count(False)),
            ("currents", None),
        ):
            if attr in cls.__dict__:
                _wrap_method(
                    cls,
                    attr,
                    lambda fn, a=attr, c=count, n=cls.__name__: _spanned(
                        fn, "devices", f"{n}.{a}", c, _innermost_is_circuit
                    ),
                )


# -- assembly --------------------------------------------------------------------


def _install_assembly() -> None:
    from repro.circuit.assembly import StampPlan
    from repro.circuit.sweep import _BatchedNewtonEngine

    def count(rows_of):
        def _count(tracer, args, kwargs, _result):
            tracer.counts["assembly.calls"] += 1
            tracer.counts["assembly.rows"] += rows_of(args)
            if tracer.depth["newton"]:
                tracer.counts["newton.iterations"] += 1

        return _count

    single = count(lambda _args: 1)
    stacked = count(lambda args: int(np.shape(args[1])[0]))
    for cls, attr, rows in (
        (StampPlan, "evaluate", single),
        (StampPlan, "evaluate_many", stacked),
        (StampPlan, "sparse_newton_step", single),
        # The engines' batched stamp kernel (a third copy of the stamp).
        (_BatchedNewtonEngine, "_evaluate_batch", stacked),
    ):
        _wrap_method(
            cls,
            attr,
            lambda fn, a=attr, c=rows, n=cls.__name__: _spanned(
                fn, "assembly", f"{n}.{a}", c
            ),
        )


# -- factorize / solve -----------------------------------------------------------


def _install_solve() -> None:
    from repro.circuit import ac, assembly, solver

    def splu_count(tracer, _args, kwargs, _result):
        kind = "numeric" if kwargs.get("permc_spec") == "NATURAL" else "symbolic"
        tracer.counts[f"solve.{kind}"] += 1

    def dense_count(tracer, _args, _kwargs, _result):
        tracer.counts["solve.dense"] += 1

    def stacked_count(tracer, args, _kwargs, _result):
        tracer.counts["solve.dense"] += int(np.prod(np.shape(args[0])[:-2]))

    def make(name, count, gate=None):
        return lambda fn: _spanned(fn, "solve", name, count, gate)

    for module, attr, count in (
        (assembly, "splu", splu_count),
        (assembly, "lu_factor", dense_count),
        (assembly, "lu_solve", None),
        (solver, "splu", splu_count),
        (solver, "dgesv", dense_count),
        (ac, "qz", dense_count),
    ):
        _wrap_function(module, attr, make(attr, count), prefix="repro.circuit")
    # ``np.linalg.solve`` is looked up on numpy at call time; the gate
    # keeps non-circuit callers out of the layer.
    np.linalg.solve = make("np.linalg.solve", stacked_count, _caller_in_circuit)(
        np.linalg.solve
    )


# -- Newton / continuation -------------------------------------------------------


def _install_newton() -> None:
    continuation = importlib.import_module("repro.circuit.continuation")
    solver = importlib.import_module("repro.circuit.solver")
    # ``repro.circuit.transient`` the attribute is the function, not the module.
    transient = importlib.import_module("repro.circuit.transient")
    from repro.circuit.sweep import (
        CircuitMonteCarlo,
        CircuitTransientMC,
        _BatchedNewtonEngine,
    )

    tracer = TRACER

    def solves(unconverged_of):
        def count(tracer, _args, _kwargs, result):
            tracer.counts["newton.solves"] += 1
            tracer.counts["newton.unconverged"] += unconverged_of(result)

        return count

    def make(name, unconverged_of):
        return lambda fn: _spanned(fn, "newton", name, solves(unconverged_of))

    def ladder(fn):
        # Counts every newton_solve under each continuation call; the
        # solves after the first are rescues.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.continuations.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                inner = tracer.continuations.pop()
                tracer.counts["newton.rescues"] += max(0, inner - 1)

        return wrapper

    def newton_step_count(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer.continuations:
                tracer.continuations[-1] += 1
            return fn(*args, **kwargs)

        return wrapper

    def batched_rescue(fn):
        # _rescue_batch(self, x_seed, x, converged, ...) updates
        # ``converged`` in place: count the instances entering the ladder.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts["newton.rescues"] += int(np.count_nonzero(~args[3]))
            return fn(*args, **kwargs)

        return wrapper

    _wrap_function(
        solver,
        "newton_solve",
        lambda fn: make("newton_solve", lambda r: int(not r[1]))(newton_step_count(fn)),
    )
    _wrap_function(
        continuation,
        "solve_dc_robust",
        lambda fn: make("solve_dc_robust", lambda r: int(not r[1].converged))(
            ladder(fn)
        ),
    )
    _wrap_function(solver, "solve_dc", make("solve_dc", lambda r: 0))
    _wrap_function(transient, "transient", make("transient", lambda r: 0))
    _wrap_method(
        CircuitMonteCarlo,
        "run",
        make("CircuitMonteCarlo.run", lambda r: r.n_instances - r.n_converged),
    )
    _wrap_method(
        CircuitTransientMC,
        "run",
        make("CircuitTransientMC.run", lambda r: r.n_instances - r.n_converged),
    )
    _wrap_method(_BatchedNewtonEngine, "_rescue_batch", batched_rescue)


# -- sweep supervision -----------------------------------------------------------


def _install_sweep() -> None:
    from repro.circuit import resilience, sweep

    def runs(tracer, _args, _kwargs, _result):
        tracer.counts["sweep.runs"] += 1

    def chunks(tracer, _args, _kwargs, _result):
        tracer.counts["sweep.chunks"] += 1

    for attr in ("run", "run_supervised"):
        _wrap_method(
            sweep.SweepPlan,
            attr,
            lambda fn, a=attr: _spanned(fn, "sweep", f"SweepPlan.{a}", runs),
        )
    _wrap_function(
        resilience,
        "run_supervised",
        lambda fn: _spanned(fn, "sweep", "run_supervised", runs),
    )
    _wrap_function(sweep, "_run_chunk", lambda fn: _counted(fn, chunks))


# -- AC --------------------------------------------------------------------------


def _install_ac() -> None:
    from repro.circuit import ac

    def sweep_count(tracer, args, _kwargs, _result):
        tracer.counts["ac.frequencies"] += int(np.size(args[1]))

    def mc_count(tracer, args, kwargs, _result):
        frequencies = args[2] if len(args) > 2 else kwargs["frequencies_hz"]
        variation = args[3] if len(args) > 3 else kwargs["variation"]
        tracer.counts["ac.frequencies"] += int(np.size(frequencies)) * int(
            variation.n_instances
        )

    _wrap_method(
        ac.ACPlan,
        "sweep_samples",
        lambda fn: _spanned(fn, "ac", "ACPlan.sweep_samples", sweep_count),
    )
    _wrap_method(
        ac.ACPlan, "__init__", lambda fn: _spanned(fn, "ac", "ACPlan.__init__")
    )
    _wrap_function(
        ac, "ac_monte_carlo", lambda fn: _spanned(fn, "ac", "ac_monte_carlo", mc_count)
    )


# -- integration / analysis ------------------------------------------------------


def _install_package(package_name: str, layer: str) -> None:
    """Span every public function and method defined in ``package_name``."""
    package = importlib.import_module(package_name)
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        module = importlib.import_module(info.name)
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != info.name:
                continue
            if inspect.isfunction(value):
                _wrap_function(
                    module,
                    attr,
                    lambda fn, n=f"{info.name}.{attr}": _spanned(fn, layer, n),
                )
            elif inspect.isclass(value):
                for method in list(vars(value)):
                    if method.startswith("_"):
                        continue
                    _wrap_method(
                        value,
                        method,
                        lambda fn, n=f"{attr}.{method}": _spanned(fn, layer, n),
                    )


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.startswith("repro.lint"):
            importlib.import_module(info.name)


def install() -> Tracer:
    """Wrap every layer; returns the (inactive) process tracer."""
    _import_all()
    _install_transport()
    _install_contacts()  # before devices: its wrapper nests inside theirs
    _install_tables()
    _install_devices()
    _install_assembly()
    _install_solve()
    _install_newton()
    _install_sweep()
    _install_ac()
    _install_package("repro.integration", "integration")
    _install_package("repro.analysis", "analysis")
    return TRACER
