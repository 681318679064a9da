"""Contact-resistance wrappers (Section III.B / Fig. 4 of the paper).

The paper demonstrates how parasitic source/drain resistance degrades a
CNT-FET: adding 50 kOhm per contact to an ideally contacted device both
cuts the current and *linearises* the I-V, erasing the saturation that
logic needs.  :class:`SeriesResistanceFET` wraps any :class:`FETModel`
with external resistors and solves the internal bias self-consistently.

A physical contact-length model (after Franklin & Chen's length-scaling
study, the paper's Ref. [16]) converts contact geometry into resistance,
including the ~6.5 kOhm quantum limit h/4q^2 a perfect CNT contact pair
cannot beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.base import FETModel, OperatingBox
from repro.physics.constants import CNT_QUANTUM_RESISTANCE_OHM

__all__ = ["SeriesResistanceFET", "ContactModel"]

# Stopping rule of the contact solve (scipy's brentq rule): a point is
# done once its bracket is narrower than _XTOL_A + _RTOL * |I|.
_XTOL_A = 1e-18
_RTOL = 1e-12
_MAX_ITERATIONS = 200


class SeriesResistanceFET(FETModel):
    """A FET with lumped source/drain series resistance.

    The internal device sees vgs' = vgs - I R_s and vds' = vds - I (R_s + R_d);
    the current satisfies the implicit equation

        I = inner.current(vgs - I R_s, vds - I (R_s + R_d)),

    which has a unique solution for monotone devices.  A vectorised
    Illinois (modified regula-falsi) solve on [0, I_intrinsic] finds it for
    whole bias arrays, one batched ``inner.currents`` call per step; the
    bracket keeps it robust in the steep exponential subthreshold region
    where Newton overshoots.  Scalar :meth:`current` is the one-point case.
    """

    def __init__(self, inner: FETModel, r_source_ohm: float, r_drain_ohm: float):
        if r_source_ohm < 0.0 or r_drain_ohm < 0.0:
            raise ValueError("contact resistances must be >= 0")
        self.inner = inner
        self.r_source_ohm = r_source_ohm
        self.r_drain_ohm = r_drain_ohm
        # Unequal contact resistances break the source/drain exchange
        # symmetry (the mirror swaps which resistor plays "source"), so
        # surrogate compilation must tabulate both drain polarities.
        self.mirror_symmetric = r_source_ohm == r_drain_ohm

    def operating_box(self) -> OperatingBox:
        box = self.inner.operating_box()
        if self.mirror_symmetric:
            return box
        return OperatingBox(
            vgs_min=box.vgs_min,
            vgs_max=box.vgs_max,
            vds_min=-box.vds_max,
            vds_max=box.vds_max,
        )

    @property
    def total_resistance_ohm(self) -> float:
        return self.r_source_ohm + self.r_drain_ohm

    def current(self, vgs: float, vds: float) -> float:
        if vds < 0.0:
            # Terminal exchange also swaps which resistor plays "source".
            mirrored = SeriesResistanceFET(self.inner, self.r_drain_ohm, self.r_source_ohm)
            return -mirrored.current(vgs - vds, -vds)
        row = self._forward_currents(np.array([vgs], dtype=float), np.array([vds], dtype=float))
        return float(row[0])

    def _forward_currents(self, vgs: np.ndarray, vds: np.ndarray) -> np.ndarray:
        """Elementwise self-consistent currents on the vds >= 0 quadrant."""
        intrinsic = np.asarray(self.inner.currents(vgs, vds), dtype=float)
        flat_vgs, flat_vds = np.ravel(vgs), np.ravel(vds)
        out = intrinsic.ravel().copy()

        def residual(current: np.ndarray, index: np.ndarray) -> np.ndarray:
            internal_vgs = flat_vgs[index] - current * self.r_source_ohm
            internal_vds = flat_vds[index] - current * self.total_resistance_ohm
            return self.inner.currents(internal_vgs, internal_vds) - current

        # residual(0) = I_intrinsic and residual(I_intrinsic) <= 0, because
        # degrading both internal biases can only lower the current.  Off
        # points (I_intrinsic <= 0) and roots at the top end keep I_intrinsic.
        active = np.flatnonzero(out > 0.0) if self.total_resistance_ohm > 0.0 else np.arange(0)
        latest, kept, f_kept = out[active], np.zeros(active.size), out[active]
        f_latest = residual(latest, active) if active.size else latest
        still_open = f_latest < 0.0
        # Illinois: each secant point of the bracket becomes the new latest
        # end.  If its residual changed sign, the old latest end is kept;
        # otherwise the kept end stays and its residual is halved, so the
        # bracket shrinks from both sides.
        for _ in range(_MAX_ITERATIONS):
            active, latest, f_latest, kept, f_kept = (
                a[still_open] for a in (active, latest, f_latest, kept, f_kept)
            )
            if active.size == 0:
                break
            trial = latest - f_latest * (latest - kept) / (f_latest - f_kept)
            f_trial = residual(trial, active)
            crossed = (f_trial > 0.0) != (f_latest > 0.0)
            kept = np.where(crossed, latest, kept)
            f_kept = np.where(crossed, f_latest, 0.5 * f_kept)
            latest, f_latest = trial, f_trial
            out[active] = latest
            still_open = (f_trial != 0.0) & (
                np.abs(latest - kept) >= _XTOL_A + _RTOL * np.abs(latest)
            )
        return out.reshape(intrinsic.shape)


@dataclass(frozen=True)
class ContactModel:
    """Transfer-length model of a metal-on-CNT side contact.

    R_contact(L_c) = R_q/2 + rho_c * L_t / tanh(L_c / L_t) in a
    transfer-length (distributed) picture reduced to its two asymptotes:
    long contacts approach the quantum-plus-interface floor, short
    contacts blow up as 1/L_c — the sub-100 nm dependence on metal length
    the paper describes.

    Attributes
    ----------
    transfer_length_nm:
        Current-transfer length L_t of the metal/CNT interface.
    interface_resistance_ohm:
        Extra interface resistance of an infinitely long contact, on top
        of half the CNT quantum resistance.
    """

    transfer_length_nm: float = 40.0
    interface_resistance_ohm: float = 2000.0

    def __post_init__(self) -> None:
        if self.transfer_length_nm <= 0.0:
            raise ValueError("transfer length must be positive")
        if self.interface_resistance_ohm < 0.0:
            raise ValueError("interface resistance must be >= 0")

    def resistance_ohm(self, contact_length_nm: float) -> float:
        """One contact's resistance [Ohm] at the given metal coverage length."""
        if contact_length_nm <= 0.0:
            raise ValueError(f"contact length must be positive, got {contact_length_nm}")
        quantum_floor = CNT_QUANTUM_RESISTANCE_OHM / 2.0
        spreading = self.interface_resistance_ohm / math.tanh(
            contact_length_nm / self.transfer_length_nm
        )
        return quantum_floor + spreading

    def device_series_resistance_ohm(self, contact_length_nm: float) -> float:
        """Two-contact series resistance of a device [Ohm].

        For the 20 nm contacts of the paper's benchmark device this lands
        near the ~11 kOhm total series resistance of Ref. [16].
        """
        return 2.0 * self.resistance_ohm(contact_length_nm)
