"""Wafer-scale integration statistics (Section V of the paper).

Growth chirality populations, separation (sorting) processes, placement
site statistics (quartz-aligned growth and trench deposition), the
Monte-Carlo CNFET array, and circuit yield models: the Shulaker
one-bit computer and the purity a wafer-scale circuit needs.
"""

from repro.integration.growth import GrowthDistribution
from repro.integration.placement import (
    AlignedGrowth,
    PlacementStatistics,
    TrenchDeposition,
)
from repro.integration.sorting import (
    DENSITY_GRADIENT,
    DNA_SORTING,
    GEL_CHROMATOGRAPHY,
    SeparationProcess,
    SortingResult,
    passes_to_reach_purity,
)
from repro.integration.variability import (
    ArrayResult,
    ArraySpec,
    CNFETArrayModel,
)
from repro.integration.yields import (
    CircuitYield,
    GateYieldModel,
    SHULAKER_TRANSISTOR_COUNT,
    circuit_yield,
    purity_required_for_yield,
    shulaker_computer_yield,
)

__all__ = [
    "AlignedGrowth",
    "ArrayResult",
    "ArraySpec",
    "CNFETArrayModel",
    "CircuitYield",
    "DENSITY_GRADIENT",
    "DNA_SORTING",
    "GEL_CHROMATOGRAPHY",
    "GateYieldModel",
    "GrowthDistribution",
    "PlacementStatistics",
    "SHULAKER_TRANSISTOR_COUNT",
    "SeparationProcess",
    "SortingResult",
    "TrenchDeposition",
    "circuit_yield",
    "passes_to_reach_purity",
    "purity_required_for_yield",
    "shulaker_computer_yield",
]
