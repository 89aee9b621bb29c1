"""Tests for the named RNG registry."""

import numpy as np

from repro.sim import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("loss")
    b = RngRegistry(42).stream("loss")
    assert np.array_equal(a.random(10), b.random(10))


def test_different_names_independent():
    reg = RngRegistry(42)
    a = reg.stream("loss").random(10)
    b = reg.stream("workload").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(1).stream("loss").random(10)
    b = RngRegistry(2).stream("loss").random(10)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_creation_order_does_not_matter():
    r1 = RngRegistry(7)
    r1.stream("a")
    v1 = r1.stream("b").random(5)
    r2 = RngRegistry(7)
    v2 = r2.stream("b").random(5)  # created first this time
    assert np.array_equal(v1, v2)


def test_names_listing():
    reg = RngRegistry(0)
    reg.stream("b")
    reg.stream("a")
    assert reg.names() == ["a", "b"]


def test_master_seed_type_check():
    import pytest

    with pytest.raises(TypeError):
        RngRegistry("not-an-int")
