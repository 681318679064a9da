"""Ballistic carbon-nanotube FET compact model.

Combines the zone-folded CNT band structure, gate-all-around (or
back-gate) electrostatics and the self-consistent top-of-barrier solver
into a three-terminal device that reproduces the experimentally observed
CNT-FET behaviour the paper highlights:

* near-ideal current saturation down to low V_DS (Fig. 1(b), Fig. 4(a)),
* ~20 uA on-current at V_DS = 0.6 V for a 1 nm-class tube (Section III.E),
* quasi-ballistic scaling with channel length via the mean-free-path
  transmission (Fig. 5).
"""

from __future__ import annotations


import numpy as np

from repro.devices.base import FETModel
from repro.physics.cnt import Chirality, chirality_for_gap
from repro.physics.electrostatics import (
    gate_all_around_capacitance,
    wire_over_plane_capacitance,
)
from repro.transport.ballistic import BallisticParameters, OperatingPoint, TopOfBarrierSolver
from repro.transport.scattering import MeanFreePath, ballisticity

__all__ = ["CNTFET"]

_GATE_GEOMETRIES = ("gaa", "back-gate")


class CNTFET(FETModel):
    """A single-tube ballistic CNT-FET.

    Parameters
    ----------
    chirality:
        Tube chirality; must be semiconducting.
    channel_length_nm:
        Gated channel length; sets the ballisticity through the MFP model.
    t_ox_nm, eps_ox:
        Gate dielectric thickness and relative permittivity (default
        3 nm HfO2-class high-k, Section III.D).
    gate_geometry:
        ``"gaa"`` (coaxial, Fig. 3) or ``"back-gate"`` (tube on oxide).
    alpha_g, alpha_d:
        Barrier control factors of the top-of-barrier model.
    ef_offset_ev:
        Source Fermi level relative to the first subband edge at
        equilibrium [eV]; more negative = higher threshold voltage.
    n_subbands:
        Number of conduction subbands retained.
    """

    def __init__(
        self,
        chirality: Chirality,
        channel_length_nm: float = 20.0,
        t_ox_nm: float = 3.0,
        eps_ox: float = 16.0,
        gate_geometry: str = "gaa",
        alpha_g: float = 0.9,
        alpha_d: float = 0.03,
        ef_offset_ev: float = -0.3,
        temperature_k: float = 300.0,
        n_subbands: int = 3,
    ):
        if not chirality.is_semiconducting:
            raise ValueError(f"CNTFET needs a semiconducting tube, got {chirality}")
        if channel_length_nm <= 0.0:
            raise ValueError(f"channel length must be positive, got {channel_length_nm}")
        if gate_geometry not in _GATE_GEOMETRIES:
            raise ValueError(
                f"unknown gate geometry {gate_geometry!r}; choose from {_GATE_GEOMETRIES}"
            )
        self.chirality = chirality
        self.channel_length_nm = channel_length_nm
        self.t_ox_nm = t_ox_nm
        self.eps_ox = eps_ox
        self.gate_geometry = gate_geometry
        self.bands = chirality.band_structure(n_subbands)
        self.mean_free_path = MeanFreePath(
            diameter_nm=chirality.diameter_nm, temperature_k=temperature_k
        )
        transmission = ballisticity(
            channel_length_nm, self.mean_free_path.effective_nm()
        )
        if gate_geometry == "gaa":
            c_ins = gate_all_around_capacitance(chirality.diameter_nm, t_ox_nm, eps_ox)
        else:
            c_ins = wire_over_plane_capacitance(chirality.diameter_nm, t_ox_nm, eps_ox)
        self.params = BallisticParameters(
            c_ins_f_per_m=c_ins,
            alpha_g=alpha_g,
            alpha_d=alpha_d,
            ef_offset_ev=ef_offset_ev,
            temperature_k=temperature_k,
            transmission=transmission,
        )
        self._solver = TopOfBarrierSolver(self.bands, self.params)

    # -- constructors --------------------------------------------------------
    @classmethod
    def for_bandgap(cls, gap_ev: float, **kwargs) -> "CNTFET":
        """Device built on the chirality whose gap best matches ``gap_ev``."""
        return cls(chirality_for_gap(gap_ev), **kwargs)

    @classmethod
    def reference_device(cls) -> "CNTFET":
        """The paper's benchmark device: ~1.5 nm tube, 20 nm GAA channel."""
        return cls.for_bandgap(0.56)

    # -- device interface ------------------------------------------------------
    def _forward_currents(self, vgs, vds) -> np.ndarray:
        """Batched I_D through the vectorised top-of-barrier solver."""
        return self._solver.currents(vgs, vds)

    def grid_currents(self, vgs_grid, vds_grid) -> np.ndarray:
        """Outer-grid fill via the solver's warm-started column sweep."""
        vds_grid = np.asarray(vds_grid, dtype=float)
        if np.any(vds_grid < 0.0):
            return super().grid_currents(vgs_grid, vds_grid)
        return self._solver.grid_currents(vgs_grid, vds_grid)

    def operating_point(self, vgs: float, vds: float) -> OperatingPoint:
        """Full self-consistent solution (barrier height, charge, current)."""
        return self._solver.solve(vgs, vds)

    @property
    def transmission(self) -> float:
        """Channel ballisticity lambda / (lambda + L)."""
        return self.params.transmission

    def current_density_a_per_m(
        self, vgs: float, vds: float, pitch_nm: float | None = None
    ) -> float:
        """Width-normalised current I / pitch [A/m].

        Default pitch is the tube diameter — the normalisation used by the
        CNT-FET benchmarking literature (and the paper's Fig. 5 points).
        Pass an array pitch (e.g. 5 nm placement pitch) to benchmark a
        dense parallel-tube fabric instead.
        """
        pitch = self.chirality.diameter_nm if pitch_nm is None else pitch_nm
        if pitch <= 0.0:
            raise ValueError(f"pitch must be positive, got {pitch}")
        return self.current(vgs, vds) / (pitch * 1e-9)

    def subthreshold_swing_mv_per_decade(
        self, vds: float = 0.5, vgs_window: tuple[float, float] = (0.0, 0.25)
    ) -> float:
        """SS extracted from the transfer curve inside ``vgs_window``."""
        vgs_values = np.linspace(vgs_window[0], vgs_window[1], 41)
        currents = self.currents(vgs_values, vds)
        log_i = np.log10(np.clip(currents, 1e-30, None))
        slopes = np.diff(vgs_values) / np.diff(log_i)
        return float(np.min(slopes)) * 1e3

    def __repr__(self) -> str:
        return (
            f"CNTFET(chirality=({self.chirality.n},{self.chirality.m}), "
            f"L={self.channel_length_nm} nm, {self.gate_geometry}, "
            f"T_channel={self.transmission:.3f})"
        )
