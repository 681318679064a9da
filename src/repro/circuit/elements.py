"""Circuit elements and their residual/Jacobian contributions.

The solver works on the residual formulation of modified nodal analysis:
the unknown vector stacks node voltages (ground excluded) and the branch
currents of voltage sources; each element adds its terminal currents to
the KCL residual and its derivatives to the Jacobian.  Nonlinear FETs
linearise through
:meth:`repro.devices.base.FETModel.linearize_point` — by default the
one-point call of the batched ``linearize`` (central differences) that
the compiled stamp plan of :mod:`repro.circuit.assembly` calls, and a
closed-form scalar pass for the analytic models — so this reference
path and the compiled path share their arithmetic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.circuit.waveforms import DC
from repro.devices.base import FETModel

__all__ = ["Element", "Resistor", "Capacitor", "VoltageSource", "CurrentSource", "FET"]

GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


class Element(abc.ABC):
    """Base class: a named element attached to named nodes."""

    name: str
    nodes: tuple[str, ...]

    @abc.abstractmethod
    def contribute(self, ctx: "StampContext") -> None:
        """Add this element's currents/derivatives to the system being built."""

    @property
    def branch_count(self) -> int:
        """Number of extra (branch-current) unknowns this element needs."""
        return 0


@dataclass
class StampContext:
    """View of the system under assembly handed to each element.

    ``voltage(node)`` reads the present Newton iterate; ``add_current``
    accumulates KCL residuals ("current leaving the node is positive");
    ``add_jacobian`` accumulates d(residual row)/d(unknown column).
    Transient analyses provide ``time_s``, ``dt_s`` and per-element
    ``state`` dictionaries (charge history for reactive elements).
    """

    system: object
    x: object
    residual: object
    jacobian: object
    time_s: float | None = None
    dt_s: float | None = None
    previous_x: object = None
    integrator: str = "trapezoidal"
    state: dict = field(default_factory=dict)
    source_scale: float = 1.0
    gmin: float = 0.0

    def index(self, node: str) -> int | None:
        return self.system.node_index(node)

    def voltage(self, node: str, vector=None) -> float:
        vector = self.x if vector is None else vector
        idx = self.index(node)
        return 0.0 if idx is None else float(vector[idx])

    def add_current(self, node: str, value: float) -> None:
        idx = self.index(node)
        if idx is not None:
            self.residual[idx] += value

    def add_jacobian(self, row_node: str, col_index: int | None, value: float) -> None:
        row = self.index(row_node)
        if row is not None and col_index is not None:
            self.jacobian[row, col_index] += value

    def add_branch_residual(self, branch_index: int, value: float) -> None:
        self.residual[branch_index] += value

    def add_branch_jacobian(self, branch_index: int, col_index: int | None, value: float) -> None:
        if col_index is not None:
            self.jacobian[branch_index, col_index] += value


@dataclass
class Resistor(Element):
    """Linear resistor between nodes p and n."""

    name: str
    p: str
    n: str
    resistance_ohm: float

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0.0:
            raise ValueError(f"{self.name}: resistance must be positive")
        self.nodes = (self.p, self.n)

    def contribute(self, ctx: StampContext) -> None:
        conductance = 1.0 / self.resistance_ohm
        vp, vn = ctx.voltage(self.p), ctx.voltage(self.n)
        current = conductance * (vp - vn)
        ctx.add_current(self.p, current)
        ctx.add_current(self.n, -current)
        ip, in_ = ctx.index(self.p), ctx.index(self.n)
        ctx.add_jacobian(self.p, ip, conductance)
        ctx.add_jacobian(self.p, in_, -conductance)
        ctx.add_jacobian(self.n, ip, -conductance)
        ctx.add_jacobian(self.n, in_, conductance)


@dataclass
class Capacitor(Element):
    """Linear capacitor; open in DC, companion-model in transient."""

    name: str
    p: str
    n: str
    capacitance_f: float

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0.0:
            raise ValueError(f"{self.name}: capacitance must be positive")
        self.nodes = (self.p, self.n)

    def contribute(self, ctx: StampContext) -> None:
        if ctx.dt_s is None:
            return  # open circuit in DC
        vp, vn = ctx.voltage(self.p), ctx.voltage(self.n)
        v_now = vp - vn
        v_prev = ctx.voltage(self.p, ctx.previous_x) - ctx.voltage(self.n, ctx.previous_x)
        if ctx.integrator == "backward-euler":
            geq = self.capacitance_f / ctx.dt_s
            current = geq * (v_now - v_prev)
        else:  # trapezoidal
            geq = 2.0 * self.capacitance_f / ctx.dt_s
            i_prev = ctx.state.get(self.name, 0.0)
            current = geq * (v_now - v_prev) - i_prev
        ctx.add_current(self.p, current)
        ctx.add_current(self.n, -current)
        ip, in_ = ctx.index(self.p), ctx.index(self.n)
        ctx.add_jacobian(self.p, ip, geq)
        ctx.add_jacobian(self.p, in_, -geq)
        ctx.add_jacobian(self.n, ip, -geq)
        ctx.add_jacobian(self.n, in_, geq)

    def update_state(self, ctx: StampContext) -> float:
        """Capacitor current at the accepted solution (trapezoidal history)."""
        v_now = ctx.voltage(self.p) - ctx.voltage(self.n)
        v_prev = ctx.voltage(self.p, ctx.previous_x) - ctx.voltage(self.n, ctx.previous_x)
        if ctx.integrator == "backward-euler":
            return self.capacitance_f / ctx.dt_s * (v_now - v_prev)
        geq = 2.0 * self.capacitance_f / ctx.dt_s
        i_prev = ctx.state.get(self.name, 0.0)
        return geq * (v_now - v_prev) - i_prev


@dataclass
class VoltageSource(Element):
    """Independent voltage source with a branch-current unknown."""

    name: str
    p: str
    n: str
    waveform: object = field(default_factory=DC)
    branch_index: int = -1  # assigned by the netlist

    def __post_init__(self) -> None:
        self.nodes = (self.p, self.n)
        if isinstance(self.waveform, (int, float)):
            self.waveform = DC(float(self.waveform))

    @property
    def branch_count(self) -> int:
        return 1

    def level(self, time_s: float | None) -> float:
        if time_s is None:
            return self.waveform.dc
        return self.waveform.value(time_s)

    def contribute(self, ctx: StampContext) -> None:
        branch = self.branch_index
        current = float(ctx.x[branch])
        ctx.add_current(self.p, current)
        ctx.add_current(self.n, -current)
        ctx.add_jacobian(self.p, branch, 1.0)
        ctx.add_jacobian(self.n, branch, -1.0)
        vp, vn = ctx.voltage(self.p), ctx.voltage(self.n)
        target = ctx.source_scale * self.level(ctx.time_s)
        ctx.add_branch_residual(branch, vp - vn - target)
        ctx.add_branch_jacobian(branch, ctx.index(self.p), 1.0)
        ctx.add_branch_jacobian(branch, ctx.index(self.n), -1.0)


@dataclass
class CurrentSource(Element):
    """Independent current source (current flows p -> n through the source)."""

    name: str
    p: str
    n: str
    waveform: object = field(default_factory=DC)

    def __post_init__(self) -> None:
        self.nodes = (self.p, self.n)
        if isinstance(self.waveform, (int, float)):
            self.waveform = DC(float(self.waveform))

    def level(self, time_s: float | None) -> float:
        if time_s is None:
            return self.waveform.dc
        return self.waveform.value(time_s)

    def contribute(self, ctx: StampContext) -> None:
        current = ctx.source_scale * self.level(ctx.time_s)
        ctx.add_current(self.p, current)
        ctx.add_current(self.n, -current)


@dataclass
class FET(Element):
    """Three-terminal FET wrapping any :class:`repro.devices.FETModel`.

    The device model is source-referenced and n-type-signed; p-type
    devices are expressed by wrapping the model in
    :class:`repro.devices.PType` before building the element.  Gate
    current is zero (insulated gate); gate capacitance, when needed, is
    modelled with explicit Capacitor elements.
    """

    name: str
    drain: str
    gate: str
    source: str
    device: FETModel

    def __post_init__(self) -> None:
        self.nodes = (self.drain, self.gate, self.source)

    def contribute(self, ctx: StampContext) -> None:
        vd = ctx.voltage(self.drain)
        vg = ctx.voltage(self.gate)
        vs = ctx.voltage(self.source)
        current, gm, gds = self.device.linearize_point(vg - vs, vd - vs)
        current, gm, gds = float(current), float(gm), float(gds)

        ctx.add_current(self.drain, current)
        ctx.add_current(self.source, -current)
        i_d, i_g, i_s = (
            ctx.index(self.drain),
            ctx.index(self.gate),
            ctx.index(self.source),
        )
        # dI/dVd = gds ; dI/dVg = gm ; dI/dVs = -(gm + gds)
        ctx.add_jacobian(self.drain, i_d, gds)
        ctx.add_jacobian(self.drain, i_g, gm)
        ctx.add_jacobian(self.drain, i_s, -(gm + gds))
        ctx.add_jacobian(self.source, i_d, -gds)
        ctx.add_jacobian(self.source, i_g, -gm)
        ctx.add_jacobian(self.source, i_s, gm + gds)
