"""Transport models: Landauer subband current, ballistic FET solver, MFP, tunneling."""

from repro.transport.ballistic import BallisticParameters, TopOfBarrierSolver
from repro.transport.landauer import subband_ballistic_current
from repro.transport.scattering import MeanFreePath, ballisticity
from repro.transport.tunneling import (
    JunctionProfile,
    junction_btbt_integral_ev,
    junction_btbt_transmission,
    wkb_transmission_uniform_field,
)

__all__ = [
    "BallisticParameters",
    "JunctionProfile",
    "MeanFreePath",
    "TopOfBarrierSolver",
    "ballisticity",
    "junction_btbt_integral_ev",
    "junction_btbt_transmission",
    "subband_ballistic_current",
    "wkb_transmission_uniform_field",
]
