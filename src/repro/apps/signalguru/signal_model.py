"""Ground-truth traffic-signal dynamics for the synthetic intersection.

SignalGuru learns a signal's transition schedule from observations; this
module *is* the signal being observed — a fixed-time controller cycling
red → green → yellow, optionally with slow drift, from which camera
observations (with noise/occlusion) are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

PHASES = ("red", "green", "yellow")


@dataclass
class TrafficSignal:
    """A fixed-time signal: red -> green -> yellow -> red...

    Parameters are typical urban settings; SignalGuru's SVM learns to
    predict time-to-next-transition from the current phase + elapsed time.
    """

    red_s: float = 40.0
    green_s: float = 35.0
    yellow_s: float = 4.0
    phase_offset_s: float = 0.0

    def __post_init__(self) -> None:
        if min(self.red_s, self.green_s, self.yellow_s) <= 0:
            raise ValueError("phase durations must be positive")

    @property
    def cycle_s(self) -> float:
        """Full cycle duration."""
        return self.red_s + self.green_s + self.yellow_s

    def phase_at(self, t: float) -> Tuple[str, float, float]:
        """(phase_name, elapsed_in_phase, time_to_transition) at time ``t``."""
        u = (t + self.phase_offset_s) % self.cycle_s
        if u < self.red_s:
            return "red", u, self.red_s - u
        u -= self.red_s
        if u < self.green_s:
            return "green", u, self.green_s - u
        u -= self.green_s
        return "yellow", u, self.yellow_s - u
