"""Ballistic graphene-nanoribbon FET model (the *theoretical* GNR-FET).

This is the device of the paper's Fig. 1: a GNR-FET simulated at the same
level of theory as the CNT-FET (Ouyang et al., APL 89, 203107 (2006)).
At equal band gap it nearly matches the CNT-FET on a log scale, with a
small linear-scale deficit from the lifted valley degeneracy (2 vs 4
modes).  Crucially, this *simulated* device does saturate — the point of
Fig. 1 is that **measured** GNR devices do not, which the package models
separately as :class:`repro.devices.empirical.NonSaturatingFET`.
"""

from __future__ import annotations


import numpy as np

from repro.devices.base import FETModel
from repro.physics.electrostatics import ribbon_plate_capacitance
from repro.physics.gnr import ArmchairGNR, gnr_for_gap
from repro.transport.ballistic import BallisticParameters, OperatingPoint, TopOfBarrierSolver
from repro.transport.scattering import MeanFreePath, ballisticity

__all__ = ["GNRFET"]


class GNRFET(FETModel):
    """A ballistic armchair-GNR FET with a top plate gate.

    Parameters mirror :class:`repro.devices.cntfet.CNTFET`; the gate
    capacitance uses the ribbon parallel-plate-plus-fringe formula and the
    mean free path defaults to the same phonon-limited model (edge
    disorder, the dominant scattering source in real ribbons, can be
    emulated by passing a shorter ``mfp_override_nm``).
    """

    def __init__(
        self,
        ribbon: ArmchairGNR,
        channel_length_nm: float = 20.0,
        t_ox_nm: float = 3.0,
        eps_ox: float = 16.0,
        alpha_g: float = 0.9,
        alpha_d: float = 0.03,
        ef_offset_ev: float = -0.3,
        temperature_k: float = 300.0,
        n_subbands: int = 3,
        mfp_override_nm: float | None = None,
    ):
        if not ribbon.is_semiconducting:
            raise ValueError(f"GNRFET needs a semiconducting ribbon, got {ribbon}")
        if channel_length_nm <= 0.0:
            raise ValueError(f"channel length must be positive, got {channel_length_nm}")
        self.ribbon = ribbon
        self.channel_length_nm = channel_length_nm
        self.bands = ribbon.band_structure(n_subbands)
        if mfp_override_nm is not None:
            if mfp_override_nm <= 0.0:
                raise ValueError(f"MFP override must be positive, got {mfp_override_nm}")
            mfp_nm = mfp_override_nm
        else:
            mfp_nm = MeanFreePath(
                diameter_nm=max(ribbon.width_nm, 0.5), temperature_k=temperature_k
            ).effective_nm()
        self.params = BallisticParameters(
            c_ins_f_per_m=ribbon_plate_capacitance(ribbon.width_nm, t_ox_nm, eps_ox),
            alpha_g=alpha_g,
            alpha_d=alpha_d,
            ef_offset_ev=ef_offset_ev,
            temperature_k=temperature_k,
            transmission=ballisticity(channel_length_nm, mfp_nm),
        )
        self._solver = TopOfBarrierSolver(self.bands, self.params)

    @classmethod
    def for_bandgap(cls, gap_ev: float, **kwargs) -> "GNRFET":
        """Device built on the ribbon whose gap best matches ``gap_ev``."""
        return cls(gnr_for_gap(gap_ev), **kwargs)

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

    def current_density_a_per_m(self, vgs: float, vds: float) -> float:
        """Width-normalised current I / W [A/m]."""
        return self.current(vgs, vds) / (self.ribbon.width_nm * 1e-9)

    def __repr__(self) -> str:
        return (
            f"GNRFET(AGNR-{self.ribbon.n_dimer}, W={self.ribbon.width_nm:.2f} nm, "
            f"L={self.channel_length_nm} nm, T_channel={self.transmission:.3f})"
        )
