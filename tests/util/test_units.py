"""Tests for unit helpers."""

import pytest

from repro.util import (
    KB,
    MB,
    Mbps,
    bytes_to_bits,
    transmission_time,
)


def test_constants():
    assert KB == 1024
    assert MB == 1024 * 1024


def test_rate_conversions():
    assert Mbps(1) == 1_000_000


def test_bytes_to_bits():
    assert bytes_to_bits(10) == 80


def test_transmission_time_basic():
    # 1 MB over 8 Mbps = 1,048,576 * 8 bits / 8e6 bps ≈ 1.0486 s
    t = transmission_time(MB, Mbps(8))
    assert t == pytest.approx(1.048576)


def test_transmission_time_paper_uplink():
    # A 200 KB image over the paper's worst-case 0.016 Mbps uplink
    # takes ~102 s -> ~0.01 tuples/s, matching Table I's server floor.
    t = transmission_time(200 * KB, Mbps(0.016))
    assert 90 < t < 110


def test_transmission_time_validation():
    with pytest.raises(ValueError):
        transmission_time(10, 0)
    with pytest.raises(ValueError):
        transmission_time(-1, 100)
