"""Tests for the phone model."""

import pytest

from repro.device import Phone, PhoneConfig
from repro.net import Position


def test_defaults():
    p = Phone("p1", Position(0, 0))
    assert p.alive
    assert p.config.cpu_speed == 1.0
    assert p.battery.fraction == 1.0


def test_compute_time_scales_with_cpu_speed():
    slow = Phone("s", Position(0, 0), PhoneConfig(cpu_speed=1.0))
    fast = Phone("f", Position(0, 0), PhoneConfig(cpu_speed=2.0))
    assert slow.compute_time(10.0) == 10.0
    assert fast.compute_time(10.0) == 5.0


def test_compute_time_negative_raises():
    with pytest.raises(ValueError):
        Phone("p", Position(0, 0)).compute_time(-1)


def test_crash():
    p = Phone("p", Position(0, 0))
    p.crash()
    assert not p.alive


def test_config_validation():
    with pytest.raises(ValueError):
        PhoneConfig(cpu_speed=0)
    with pytest.raises(ValueError):
        PhoneConfig(cores=0)
