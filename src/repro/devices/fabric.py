"""Aligned-CNT fabric FETs: many parallel tubes under one gate.

The paper's abstract ends on the integration requirement: "strategies
for achieving highly aligned carbon nanotube fabrics ... Without such a
high yield wafer-scale integration, SWCNT circuits will be an illusional
dream."  A logic-grade CNT transistor is not one tube but a *fabric* —
parallel semiconducting tubes at a few-nanometre pitch, with residual
metallic tubes acting as gate-independent shunts.

:class:`CNTFabricFET` composes per-tube device models (any
:class:`FETModel`) plus an ohmic metallic shunt, and reports
width-normalised drive current; :func:`sample_fabric` draws a fabric
from a growth/sorting population so the material statistics of
:mod:`repro.integration` flow directly into a circuit-usable device.
Each tube chirality is a bilinear :class:`TabulatedFET` over a 29 x 25
bias grid that solves a node of its ballistic CNT-FET only when an
evaluation first reads a cell around it: an on/off probe at two biases
solves eight nodes of the 725.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.devices.base import FETModel
from repro.devices.cntfet import CNTFET
from repro.devices.empirical import TabulatedFET
from repro.integration.growth import GrowthDistribution
from repro.physics.constants import CNT_QUANTUM_RESISTANCE_OHM

__all__ = ["CNTFabricFET", "sample_fabric"]

# Tabulated per-chirality devices are deterministic for a given channel
# length; cache them across sample_fabric calls so every fabric of a
# sweep reads the nodes earlier fabrics already solved.
_TABULATED_CACHE: dict[tuple[int, int, float], TabulatedFET] = {}


class CNTFabricFET(FETModel):
    """Parallel composition of per-tube FETs plus a metallic shunt.

    Parameters
    ----------
    tube_devices:
        One FET model per semiconducting tube (may repeat instances).
    n_metallic:
        Count of metallic tubes bridging source and drain.
    pitch_nm:
        Tube-to-tube placement pitch; sets the fabric width.
    metallic_resistance_ohm:
        Two-terminal resistance per metallic tube.
    """

    def __init__(
        self,
        tube_devices: Sequence[FETModel],
        n_metallic: int = 0,
        pitch_nm: float = 8.0,
        metallic_resistance_ohm: float = 3.0 * CNT_QUANTUM_RESISTANCE_OHM,
    ):
        if not tube_devices and n_metallic == 0:
            raise ValueError("fabric needs at least one tube")
        if n_metallic < 0:
            raise ValueError(f"metallic count must be >= 0, got {n_metallic}")
        if pitch_nm <= 0.0 or metallic_resistance_ohm <= 0.0:
            raise ValueError("pitch and metallic resistance must be positive")
        self.tube_devices = list(tube_devices)
        self.n_metallic = n_metallic
        self.pitch_nm = pitch_nm
        self.metallic_resistance_ohm = metallic_resistance_ohm

    @property
    def n_tubes(self) -> int:
        return len(self.tube_devices) + self.n_metallic

    @property
    def width_nm(self) -> float:
        """Fabric footprint width: tubes x pitch."""
        return self.n_tubes * self.pitch_nm

    @property
    def metallic_conductance_s(self) -> float:
        return self.n_metallic / self.metallic_resistance_ohm

    # repro-lint: ok[PRT001] -- parallel composition: each tube model applies its own mirror transform, the metallic shunt term is linear in vds
    def currents(self, vgs_values, vds_values) -> np.ndarray:
        vgs, vds = np.broadcast_arrays(
            np.asarray(vgs_values, dtype=float), np.asarray(vds_values, dtype=float)
        )
        total = self.metallic_conductance_s * vds
        # sample_fabric reuses cached per-chirality device instances, so
        # evaluate each distinct model once and scale by its multiplicity.
        groups: dict[int, list] = {}
        for device in self.tube_devices:
            entry = groups.setdefault(id(device), [device, 0])
            entry[1] += 1
        for device, count in groups.values():
            contribution = device.currents(vgs, vds)
            total = total + (contribution if count == 1 else count * contribution)
        return total

    def current_density_a_per_m(self, vgs: float, vds: float) -> float:
        """Drive current per unit fabric width [A/m]."""
        return self.current(vgs, vds) / (self.width_nm * 1e-9)

    def on_off_ratio(self, vdd: float, v_off: float = 0.0) -> float:
        """I_on / I_off at supply ``vdd`` — collapses with metallic shunts."""
        i_on, i_off = self.currents([vdd, v_off], [vdd, vdd])
        if i_off <= 0.0:
            return np.inf
        return float(i_on / i_off)


def sample_fabric(
    width_um: float,
    pitch_nm: float = 8.0,
    semiconducting_purity: float = 0.9999,
    growth: GrowthDistribution | None = None,
    channel_length_nm: float = 20.0,
    rng: np.random.Generator | None = None,
) -> CNTFabricFET:
    """Draw a fabric transistor from a material population.

    Chiralities are sampled from ``growth``; metallic draws (by the
    post-sorting purity, not the raw 1/3) become shunts.  Distinct
    semiconducting chiralities are built as ballistic CNT-FETs behind
    bilinear tables, so a many-tube fabric stays cheap to evaluate
    inside circuit sweeps.  A table solves nothing when it is built;
    each evaluation solves the corner nodes of the cells it reads that
    no earlier evaluation of that chirality solved.
    """
    if width_um <= 0.0:
        raise ValueError(f"width must be positive, got {width_um}")
    if not 0.0 <= semiconducting_purity <= 1.0:
        raise ValueError("purity must be in [0, 1]")
    if rng is None:
        raise ValueError(
            "sample_fabric needs an explicit numpy Generator (e.g. "
            "np.random.default_rng(seed) or a SeedSequence substream): "
            "library code never draws OS entropy implicitly"
        )
    growth = growth or GrowthDistribution()
    n_tubes = max(1, int(round(width_um * 1e3 / pitch_nm)))
    n_metallic = int(rng.binomial(n_tubes, 1.0 - semiconducting_purity))
    n_semi = n_tubes - n_metallic

    # Sample semiconducting chiralities; reuse one device per chirality
    # (tabulated devices are shared process-wide via _TABULATED_CACHE).
    tube_devices: list[FETModel] = []
    semiconducting_pool = [c for c in growth.chiralities if c.is_semiconducting]
    weights = np.array(
        [p for c, p in zip(growth.chiralities, growth.probabilities) if c.is_semiconducting]
    )
    weights = weights / weights.sum()
    choices = rng.choice(len(semiconducting_pool), size=n_semi, p=weights)
    for index in choices:
        chirality = semiconducting_pool[int(index)]
        key = (chirality.n, chirality.m, channel_length_nm)
        if key not in _TABULATED_CACHE:
            _TABULATED_CACHE[key] = TabulatedFET.from_model(
                CNTFET(chirality, channel_length_nm=channel_length_nm),
                np.linspace(-0.2, 1.2, 29),
                np.linspace(0.0, 1.2, 25),
            )
        tube_devices.append(_TABULATED_CACHE[key])
    return CNTFabricFET(
        tube_devices=tube_devices, n_metallic=n_metallic, pitch_nm=pitch_nm
    )
