"""Tests for statistics helpers."""

import math

from repro.util import mean, mean_ci


def test_mean():
    assert mean([1, 2, 3]) == 2.0
    assert math.isnan(mean([]))


def test_mean_ci_single_value():
    m, half = mean_ci([5.0])
    assert m == 5.0
    assert half == 0.0


def test_mean_ci_width_shrinks_with_n():
    small = mean_ci([1, 2, 3, 4])[1]
    big = mean_ci([1, 2, 3, 4] * 25)[1]
    assert big < small


def test_mean_ci_empty():
    m, half = mean_ci([])
    assert math.isnan(m) and math.isnan(half)
