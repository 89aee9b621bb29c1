"""Tests for planar geometry."""

import pytest

from repro.net import Position, RegionArea, distance
from repro.sim import RngRegistry


def test_distance():
    assert distance(Position(0, 0), Position(3, 4)) == 5.0


def test_region_contains():
    r = RegionArea(Position(0, 0), radius=10)
    assert r.contains(Position(5, 5))
    assert not r.contains(Position(20, 0))


def test_region_radius_validation():
    with pytest.raises(ValueError):
        RegionArea(Position(0, 0), radius=0)


def test_region_random_point_inside():
    rng = RngRegistry(1).stream("geo")
    r = RegionArea(Position(10, -5), radius=7)
    for _ in range(200):
        assert r.contains(r.random_point(rng))
