"""Time-dependent source waveforms for the circuit simulator.

Mirrors the SPICE sources this package's experiments drive: DC and
pulse (with linear ramps).  Every waveform is a callable ``value(t) ->
float`` plus a ``dc`` attribute used by operating-point analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DC", "Pulse"]


@dataclass(frozen=True)
class DC:
    """Constant value."""

    level: float = 0.0

    @property
    def dc(self) -> float:
        return self.level

    def value(self, time_s: float) -> float:
        return self.level


@dataclass(frozen=True)
class Pulse:
    """SPICE-style periodic trapezoidal pulse.

    v1 -> v2 after ``delay``, with ``rise``/``fall`` ramps, ``width`` high
    time and ``period`` repetition (0 period = single pulse).
    """

    v1: float
    v2: float
    delay_s: float = 0.0
    rise_s: float = 1e-12
    fall_s: float = 1e-12
    width_s: float = 1e-9
    period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rise_s <= 0.0 or self.fall_s <= 0.0 or self.width_s < 0.0:
            raise ValueError("pulse edges must be positive and width >= 0")
        single = self.rise_s + self.width_s + self.fall_s
        if self.period_s and self.period_s < single:
            raise ValueError(
                f"period {self.period_s} shorter than one pulse ({single})"
            )

    @property
    def dc(self) -> float:
        return self.v1

    def value(self, time_s: float) -> float:
        t = time_s - self.delay_s
        if t < 0.0:
            return self.v1
        if self.period_s > 0.0:
            t = math.fmod(t, self.period_s)
        if t < self.rise_s:
            return self.v1 + (self.v2 - self.v1) * t / self.rise_s
        t -= self.rise_s
        if t < self.width_s:
            return self.v2
        t -= self.width_s
        if t < self.fall_s:
            return self.v2 + (self.v1 - self.v2) * t / self.fall_s
        return self.v1
