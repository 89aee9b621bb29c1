"""Planar geometry: positions, distances and region areas.

A *region* (Section III) is a small area — a bus stop, an intersection —
within which phones reach each other over ad-hoc WiFi.  We model regions
as circles and phones as points; membership is purely geometric, and the
mobility models (:mod:`repro.device.mobility`) move the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Position:
    """A point in the plane, metres."""

    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in metres."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class RegionArea:
    """A circular region: centre plus radius (metres)."""

    center: Position
    radius: float = 10.0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("region radius must be positive")

    def contains(self, p: Position) -> bool:
        """Whether a point lies inside the region."""
        return distance(self.center, p) <= self.radius

    def random_point(self, rng) -> Position:
        """Uniform random point inside the region (for phone placement)."""
        r = self.radius * math.sqrt(rng.random())
        theta = rng.random() * 2 * math.pi
        return Position(
            self.center.x + r * math.cos(theta),
            self.center.y + r * math.sin(theta),
        )
