"""Device models: ballistic carbon FETs, empirical FETs, TFETs, contacts,
the trigate reference, and the spline-surrogate compiler that makes the
physical ones circuit-affordable."""

from repro.devices.base import (
    FETModel,
    OperatingBox,
    PType,
    output_curve,
    transfer_curve,
)
from repro.devices.cntfet import CNTFET
from repro.devices.contacts import ContactModel, SeriesResistanceFET
from repro.devices.empirical import AlphaPowerFET, NonSaturatingFET
from repro.devices.fabric import CNTFabricFET, sample_fabric
from repro.devices.gnrfet import GNRFET
from repro.devices.reference import TrigateFET, trigate_intel_22nm
from repro.devices.surrogate import (
    GridSpec,
    SurrogateFET,
    TabulatedFET,
    compile_surrogate,
    surrogate_cache_dir,
    surrogate_fidelity,
)
from repro.devices.tfet import CNTTunnelFET

__all__ = [
    "AlphaPowerFET",
    "CNTFET",
    "CNTFabricFET",
    "CNTTunnelFET",
    "ContactModel",
    "FETModel",
    "GNRFET",
    "GridSpec",
    "NonSaturatingFET",
    "OperatingBox",
    "PType",
    "SeriesResistanceFET",
    "SurrogateFET",
    "TabulatedFET",
    "TrigateFET",
    "compile_surrogate",
    "sample_fabric",
    "surrogate_cache_dir",
    "surrogate_fidelity",
    "output_curve",
    "transfer_curve",
    "trigate_intel_22nm",
]
