"""Mean-free-path and ballisticity models for carbon channels.

Short-channel CNT-FETs are quasi-ballistic: the paper's introduction
argues that in this regime the source injection velocity — not mobility —
sets the current, and a carrier that travels one mean free path has
effectively reached the drain.  The standard reduction captures this with
an energy-averaged transmission

    T = lambda / (lambda + L)

where ``lambda`` is the mean free path (MFP) and ``L`` the
channel length.  The MFP follows the CNT transport literature: acoustic
phonon scattering with lambda_ap ~ 300 nm (diameter- and temperature-
scaled).  Optical phonon emission (lambda_op ~ 15 nm) only sets in once
carriers gain the ~0.16 eV phonon energy; the devices take their
transmission at zero bias, where it is frozen out — one reason CNT-FETs
stay quasi-ballistic at the low supply voltages the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.physics.constants import ROOM_TEMPERATURE_K

__all__ = ["MeanFreePath", "ballisticity"]


@dataclass(frozen=True)
class MeanFreePath:
    """Diameter- and temperature-scaled acoustic mean free path of a CNT.

    The reference value is for a d = 1.5 nm tube at 300 K; the MFP scales
    linearly with diameter and inversely with temperature (phonon
    occupation).
    """

    diameter_nm: float = 1.5
    temperature_k: float = ROOM_TEMPERATURE_K
    acoustic_ref_nm: float = 300.0

    def __post_init__(self) -> None:
        if self.diameter_nm <= 0.0:
            raise ValueError(f"diameter must be positive, got {self.diameter_nm}")
        if self.temperature_k <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature_k}")

    @property
    def acoustic_nm(self) -> float:
        """Acoustic-phonon MFP [nm] ~ 300 nm * (d / 1.5 nm) * (300 K / T)."""
        return (
            self.acoustic_ref_nm
            * (self.diameter_nm / 1.5)
            * (ROOM_TEMPERATURE_K / self.temperature_k)
        )


def ballisticity(channel_length_nm: float, mfp_nm: float) -> float:
    """Channel transmission T = lambda / (lambda + L) in (0, 1]."""
    if channel_length_nm < 0.0:
        raise ValueError(f"channel length must be >= 0, got {channel_length_nm}")
    if mfp_nm <= 0.0:
        raise ValueError(f"mean free path must be positive, got {mfp_nm}")
    return mfp_nm / (mfp_nm + channel_length_nm)
