"""Small statistics helpers used by the bench harness."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for an empty sequence."""
    if len(values) == 0:
        return float("nan")
    return float(np.mean(np.asarray(values, dtype=float)))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending non-empty sample: the
    smallest value with at least ``q`` of the sample at or below it.

    This is the artifact contract's percentile (the metrics layer's
    ``p95_latency_s`` and ``ResultSet.aggregate('p95')`` both use it),
    so the formula must live in exactly one place.
    """
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def mean_ci(values: Sequence[float], z: float = 1.96) -> Tuple[float, float]:
    """(mean, half-width of the normal-approximation CI)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    if arr.size == 1:
        return float(arr[0]), 0.0
    m = float(arr.mean())
    half = z * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return m, half
