"""A sine source for the transient and assembly tests.

Any object with a ``dc`` level and a ``value(t)`` method drives a
source; no experiment uses a sine, so it lives beside its tests.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Sine:
    """offset + amplitude * sin(2 pi f t)."""

    offset: float
    amplitude: float
    frequency_hz: float

    @property
    def dc(self) -> float:
        return self.offset

    def value(self, time_s: float) -> float:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency_hz * time_s
        )
