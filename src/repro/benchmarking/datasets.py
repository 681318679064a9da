"""Reference device data for the Fig. 5 benchmark (del Alamo style).

The paper's Fig. 5 adopts del Alamo's Nature 479 benchmark — on-current
per unit width at V_DS = 0.5 V, normalised to a common off-current of
100 nA/um — and adds measured CNT-FET points (Franklin et al., Refs.
[6, 14]) that sit clearly above the Si / InAs / InGaAs field.

The numeric points below are *approximate transcriptions of the cited
publications' headline values* (documented substitution, see DESIGN.md):
absolute values are indicative, but the ordering and rough factors match
the published benchmark.  Each point is (gate length [nm], I_on [uA/um]).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BenchmarkPoint",
    "TechnologySeries",
    "FIG5_REFERENCE",
    "IOFF_TARGET_A_PER_UM",
    "VDS_BENCHMARK_V",
]

IOFF_TARGET_A_PER_UM = 100e-9
"""Common off-current normalisation of the benchmark: 100 nA/um."""

VDS_BENCHMARK_V = 0.5
"""Common drain bias of the benchmark."""


@dataclass(frozen=True)
class BenchmarkPoint:
    """One published device: gate length and normalised on-current."""

    gate_length_nm: float
    ion_ua_per_um: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.gate_length_nm <= 0.0 or self.ion_ua_per_um <= 0.0:
            raise ValueError("benchmark point values must be positive")


@dataclass(frozen=True)
class TechnologySeries:
    """A technology's point cloud in the benchmark plane."""

    name: str
    points: tuple[BenchmarkPoint, ...]

    def best_ion(self) -> float:
        return max(p.ion_ua_per_um for p in self.points)


FIG5_REFERENCE: dict[str, TechnologySeries] = {
    "Si": TechnologySeries(
        "Si",
        (
            BenchmarkPoint(25.0, 280.0, "strained Si record"),
            BenchmarkPoint(32.0, 330.0),
            BenchmarkPoint(45.0, 400.0),
            BenchmarkPoint(65.0, 430.0),
            BenchmarkPoint(100.0, 420.0),
        ),
    ),
    "InGaAs HEMT": TechnologySeries(
        "InGaAs HEMT",
        (
            BenchmarkPoint(60.0, 400.0),
            BenchmarkPoint(90.0, 380.0),
            BenchmarkPoint(150.0, 320.0),
            BenchmarkPoint(250.0, 250.0),
        ),
    ),
    "InAs HEMT": TechnologySeries(
        "InAs HEMT",
        (
            BenchmarkPoint(30.0, 500.0, "del Alamo record class"),
            BenchmarkPoint(40.0, 530.0),
            BenchmarkPoint(60.0, 550.0),
            BenchmarkPoint(85.0, 500.0),
            BenchmarkPoint(130.0, 440.0),
        ),
    ),
    "CNT (measured)": TechnologySeries(
        "CNT (measured)",
        (
            BenchmarkPoint(9.0, 1400.0, "Franklin sub-10 nm; I_off 10x higher"),
            BenchmarkPoint(15.0, 1900.0, "Franklin length scaling"),
            BenchmarkPoint(20.0, 2100.0),
            BenchmarkPoint(30.0, 2300.0, "Franklin wrap-gate class"),
            BenchmarkPoint(50.0, 2000.0),
            BenchmarkPoint(100.0, 1400.0),
            BenchmarkPoint(300.0, 700.0),
        ),
    ),
}
