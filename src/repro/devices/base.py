"""Device-model interface shared by physical and empirical FET models.

Every FET in this package is an n-type-convention model (positive
``vds`` drives positive drain current; current is zero at
``vds = 0``) behind one vectorized evaluation protocol the circuit
simulator, the analysis helpers and the surrogate compiler all program
against:

    currents(vgs_array, vds_array)   -> elementwise drain currents
    grid_currents(vgs_grid, vds_grid)-> I on the outer-product grid
    linearize(vgs, vds)              -> (id, gm, gds) arrays
    operating_box()                  -> declared (vgs, vds) bias box

and their one-point forms, floats in and floats out:

    current(vgs, vds)                -> drain current [A]
    linearize_point(vgs, vds)        -> (id, gm, gds) floats

A model states its I-V once.  Vectorised models implement
``_forward_currents`` (elementwise currents on the ``vds >= 0``
quadrant); the base ``currents`` wraps it in the shared source/drain
mirror transform, so the symmetry convention lives in exactly one
place, and the base ``current`` is the one-point call of ``currents``.
Models with only a scalar form (a closed-form or per-point integral)
implement ``current`` instead and ``currents`` loops over it.

``linearize`` is the small-signal API the compiled MNA stamp plan calls
once per device-model instance per Newton iteration, with all of that
model's FET bias points batched into one array call.  The default here
— central differences on ``currents`` with step
:data:`DEFAULT_FD_STEP` — is the one finite-difference formula of the
package; the base ``linearize_point`` is its one-point call.  It serves
the bilinear :class:`repro.devices.surrogate.TabulatedFET` and the
physical models (ballistic CNT/GNR FETs, the contact wrappers), whose
currents are table reads or solver output.  Models with closed-form
characteristics override both entry points with one analytic pass
returning ``(id, gm, gds)`` together:
:class:`repro.devices.surrogate.SurrogateFET` (per-cell bicubic
kernel), :class:`repro.devices.empirical.AlphaPowerFET` and
:class:`repro.devices.reference.TrigateFET` (exact alpha-power
derivatives) and :class:`repro.devices.empirical.NonSaturatingFET`
(``G vds``, ``G' vds``, ``G``).  Mirror-symmetric models apply the
source/drain chain rule through :func:`mirror_symmetric_linearize`.
The stamp plan gives small FET groups of exactly those models — the
ones overriding ``linearize_point`` — a scalar point path.

A ballistic CNT-FET, an empirical non-saturating GNR model and a
spline-compiled surrogate therefore stay interchangeable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_FD_STEP",
    "FETModel",
    "OperatingBox",
    "PType",
    "mirror_symmetric_currents",
    "mirror_symmetric_linearize",
    "transfer_curve",
    "output_curve",
]

# Central-difference step [V] of the default finite-difference
# linearization.
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class OperatingBox:
    """Declared bias box of a device: where its I-V surface is trusted.

    The surrogate compiler samples (and guarantees accuracy over) this
    box; circuit iterates that stray outside it are handled by bounded
    first-order extrapolation.  ``vds_min`` is 0 for source/drain
    symmetric devices (the mirror transform covers ``vds < 0``); devices
    that are *not* mirror symmetric (gated diodes) declare a genuinely
    two-sided ``vds`` range.
    """

    vgs_min: float = -0.3
    vgs_max: float = 1.3
    vds_min: float = 0.0
    vds_max: float = 1.3

    def __post_init__(self) -> None:
        if self.vgs_min >= self.vgs_max or self.vds_min >= self.vds_max:
            raise ValueError(f"degenerate operating box {self}")


def mirror_symmetric_currents(forward, vgs_values, vds_values) -> np.ndarray:
    """Elementwise source/drain exchange: I(vgs, vds<0) = -I(vgs-vds, -vds).

    Coerces and broadcasts the bias arrays, then hands ``forward`` only
    ``vds >= 0`` points.  This is the one shared implementation of the
    symmetric-device transform the scalar ``current`` methods apply
    recursively; every vectorised ``_forward_currents`` hook routes
    through it so the symmetry convention cannot drift between models.
    """
    vgs = np.asarray(vgs_values, dtype=float)
    vds = np.asarray(vds_values, dtype=float)
    if vgs.shape != vds.shape:
        vgs, vds = np.broadcast_arrays(vgs, vds)
    mirrored = vds < 0.0
    if not mirrored.any():
        return forward(vgs, vds)
    current = forward(
        np.where(mirrored, vgs - vds, vgs), np.where(mirrored, -vds, vds)
    )
    return np.where(mirrored, -current, current)


def mirror_symmetric_linearize(forward, vgs_values, vds_values):
    """``(id, gm, gds)`` under the source/drain exchange, from the forward quadrant.

    ``forward(vgs, vds)`` returns the forward-quadrant ``(id, gm, gds)``.
    At a mirrored point (``vds < 0``) it is called at
    ``(vgs - vds, -vds)`` and the chain rule of
    ``I(vgs, vds) = -I(vgs - vds, -vds)`` gives ``id -> -id'``,
    ``gm -> -gm'`` and ``gds -> gm' + gds'``.  A float ``vds`` takes
    the scalar route (``forward`` then sees floats), anything else the
    elementwise one.  This is the one copy of the rule; every analytic
    mirror-symmetric ``linearize``/``linearize_point`` goes through it.
    """
    if isinstance(vds_values, float):
        if vds_values < 0.0:
            current, gm, gds = forward(vgs_values - vds_values, -vds_values)
            return -current, -gm, gm + gds
        return forward(vgs_values, vds_values)
    vgs = np.asarray(vgs_values, dtype=float)
    vds = np.asarray(vds_values, dtype=float)
    if vgs.shape != vds.shape:
        vgs, vds = np.broadcast_arrays(vgs, vds)
    mirrored = vds < 0.0
    if not mirrored.any():
        return forward(vgs, vds)
    current, gm, gds = forward(
        np.where(mirrored, vgs - vds, vgs), np.where(mirrored, -vds, vds)
    )
    return (
        np.where(mirrored, -current, current),
        np.where(mirrored, -gm, gm),
        np.where(mirrored, gm + gds, gds),
    )


class FETModel:
    """Three-terminal FET (source-referenced).

    A subclass defines ``_forward_currents`` (array kernel) or
    ``current`` (scalar form); everything else derives from it.
    """

    #: Whether I(vgs, vds < 0) = -I(vgs - vds, -vds) holds (true for the
    #: symmetric-terminal FETs of this package; gated diodes set False).
    mirror_symmetric: bool = True

    #: Elementwise currents on the vds >= 0 quadrant, or None to fall
    #: back to a scalar loop.  Subclasses override with a method.
    _forward_currents = None

    def current(self, vgs: float, vds: float) -> float:
        """Drain current I_D [A] at the given source-referenced bias.

        The one-point call of :meth:`currents`; models with only a
        scalar form override it.
        """
        return float(self.currents(vgs, vds))

    @property
    def polarity(self) -> str:
        """'n' or 'p'; base models are n-type, wrap with :class:`PType` to flip."""
        return "n"

    def operating_box(self) -> OperatingBox:
        """Declared (vgs, vds) bias box; the surrogate compiler's default."""
        return OperatingBox()

    def currents(self, vgs_values, vds_values) -> np.ndarray:
        """Vectorised elementwise evaluation (arrays must broadcast).

        Models with closed-form characteristics implement the
        ``_forward_currents`` hook (vds >= 0 quadrant only) and inherit
        the shared mirror transform; anything else falls back to a loop
        of scalar ``current`` calls — correct for any model.  The
        compiled circuit assembly and the curve helpers below all route
        through this method, so one hook vectorises every consumer.
        The hook only applies to mirror-symmetric devices — an
        asymmetric model defining it would get silently wrong
        reverse-bias currents, so it is ignored (scalar loop) instead.
        """
        if self._forward_currents is not None and self.mirror_symmetric:
            return mirror_symmetric_currents(
                self._forward_currents, vgs_values, vds_values
            )
        if type(self).current is FETModel.current:
            raise TypeError(
                f"{type(self).__name__} defines neither current() nor a "
                "mirror-symmetric _forward_currents hook"
            )
        vgs_values, vds_values = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        out = np.fromiter(
            (
                self.current(vgs, vds)
                for vgs, vds in zip(vgs_values.ravel().tolist(), vds_values.ravel().tolist())
            ),
            dtype=float,
            count=vgs_values.size,
        )
        return out.reshape(vgs_values.shape)

    def grid_currents(self, vgs_grid, vds_grid) -> np.ndarray:
        """I_D on the outer-product grid, shape ``(len(vgs), len(vds))``.

        The table-fill entry point of the surrogate compiler.  The
        default is one batched ``currents`` call over the full grid;
        physical models whose solver benefits from column-ordered
        warm starts (see
        :meth:`repro.transport.ballistic.TopOfBarrierSolver.grid_currents`)
        override it.
        """
        vgs = np.asarray(vgs_grid, dtype=float)
        vds = np.asarray(vds_grid, dtype=float)
        return self.currents(vgs[:, None], vds[None, :])

    def linearize(self, vgs_values, vds_values):
        """Batched linearization: ``(id, gm, gds)`` at each bias point.

        The default is central differences on :meth:`currents` with
        step :data:`DEFAULT_FD_STEP`.  The five probe biases (nominal,
        vgs +/- delta, vds +/- delta) are stacked into a single
        ``currents`` call so vectorised models pay the array-dispatch
        overhead once, not five times.  Models with analytic
        derivatives override it (with :meth:`linearize_point`).
        """
        delta_v = DEFAULT_FD_STEP
        vgs = np.asarray(vgs_values, dtype=float)
        vds = np.asarray(vds_values, dtype=float)
        if vgs.shape != vds.shape:
            vgs, vds = np.broadcast_arrays(vgs, vds)
        probe_vgs = np.empty((5,) + vgs.shape)
        probe_vgs[:] = vgs
        probe_vgs[1] += delta_v
        probe_vgs[2] -= delta_v
        probe_vds = np.empty_like(probe_vgs)
        probe_vds[:] = vds
        probe_vds[3] += delta_v
        probe_vds[4] -= delta_v
        probes = self.currents(probe_vgs, probe_vds)
        gm = (probes[1] - probes[2]) / (2 * delta_v)
        gds = (probes[3] - probes[4]) / (2 * delta_v)
        return probes[0], gm, gds

    def linearize_point(self, vgs: float, vds: float):
        """:meth:`linearize` at one bias point, as floats.

        Models with analytic derivatives override it alongside
        ``linearize`` with a scalar pass of their own.
        """
        current, gm, gds = self.linearize(vgs, vds)
        return float(current), float(gm), float(gds)

    def surrogate(self, spec=None):
        """Compile this model into a cached spline :class:`SurrogateFET`.

        Convenience wrapper around
        :func:`repro.devices.surrogate.compile_surrogate`.
        """
        from repro.devices.surrogate import compile_surrogate

        return compile_surrogate(self, spec)


@dataclass(frozen=True)
class PType(FETModel):
    """p-type adapter: mirrors an n-type model through the origin.

    I_Dp(V_GS, V_DS) = -I_Dn(-V_GS, -V_DS), the standard complementary-
    device symmetry used for the paper's "symmetrical pFET and nFET"
    inverter study (Fig. 2).  The batched ``currents``/``linearize``
    entry points forward to the wrapped n-type model, so a vectorised
    (or surrogate-compiled) nFET keeps its vectorisation when mirrored.
    """

    nfet: FETModel

    @property
    def polarity(self) -> str:
        return "p"

    def operating_box(self) -> OperatingBox:
        return self.nfet.operating_box()

    def current(self, vgs: float, vds: float) -> float:
        return -self.nfet.current(-vgs, -vds)

    # repro-lint: ok[PRT001] -- polarity adapter: point reflection through the origin, then the wrapped n-type model owns the mirror transform
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        return -self.nfet.currents(
            -np.asarray(vgs_values, dtype=float), -np.asarray(vds_values, dtype=float)
        )

    def linearize(self, vgs_values, vds_values):
        # d/dv [-I_n(-v)] = +I_n'(-v): conductances carry over unsigned.
        current, gm, gds = self.nfet.linearize(
            -np.asarray(vgs_values, dtype=float),
            -np.asarray(vds_values, dtype=float),
        )
        return -current, gm, gds

    def linearize_point(self, vgs: float, vds: float):
        current, gm, gds = self.nfet.linearize_point(-vgs, -vds)
        return -current, gm, gds


def transfer_curve(device: FETModel, vgs_values, vds: float) -> np.ndarray:
    """I_D(V_GS) at fixed V_DS (one batched ``currents`` call)."""
    return device.currents(np.asarray(vgs_values, dtype=float), vds)


def output_curve(device: FETModel, vds_values, vgs: float) -> np.ndarray:
    """I_D(V_DS) at fixed V_GS (one batched ``currents`` call)."""
    return device.currents(vgs, np.asarray(vds_values, dtype=float))

