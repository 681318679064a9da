"""Seeded device-registry violations (PRT001/PRT002).

Unlike the AST fixtures this module IS imported (by the registry pass),
so the classes must be real, concrete FETModel subclasses.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import FETModel


class ShadowingFET(FETModel):
    """Overrides the batched path directly instead of _forward_currents."""

    def current(self, vgs: float, vds: float) -> float:
        return 1e-6 * vgs * vds

    def currents(self, vgs_values, vds_values):  # seeded: PRT001
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float),
            np.asarray(vds_values, dtype=float),
        )
        return 1e-6 * vgs * vds


class ScalarLinearizedFET(FETModel):
    """Keeps a scalar small-signal path beside the batched one."""

    def current(self, vgs: float, vds: float) -> float:
        return 1e-6 * vgs * vds

    def linearize(self, vgs_values, vds_values):
        raise NotImplementedError("fixture device")

    def linearize_point(self, vgs: float, vds: float):  # seeded: PRT002
        raise NotImplementedError("fixture device")
