"""Band-structure and electrostatics substrate for carbon electronics.

Public surface:

* :mod:`repro.physics.constants` — physical constants, graphene parameters.
* :class:`repro.physics.cnt.Chirality` — SWCNT geometry and zone-folded bands.
* :class:`repro.physics.gnr.ArmchairGNR` — armchair-ribbon tight-binding bands.
* :class:`repro.physics.bands.BandStructure1D` — shared 1D subband container
  (edges, degeneracy, dispersion).
* :mod:`repro.physics.electrostatics` — gate capacitances, dark space and
  scale length; the SS and DIBL that ``table1`` prints at 9 nm.
"""

from repro.physics.bands import BandStructure1D, Subband
from repro.physics.cnt import Chirality, chirality_for_gap, enumerate_chiralities
from repro.physics.fermi import fermi_dirac, fermi_integral_f0
from repro.physics.gnr import ArmchairGNR, gnr_for_gap

__all__ = [
    "ArmchairGNR",
    "BandStructure1D",
    "Chirality",
    "Subband",
    "chirality_for_gap",
    "enumerate_chiralities",
    "fermi_dirac",
    "fermi_integral_f0",
    "gnr_for_gap",
]
