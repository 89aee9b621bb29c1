"""Shared utilities: units, bitmap arithmetic, statistics, logging."""

from repro.util.bitmaps import bitmap_bytes
from repro.util.stats import mean, mean_ci
from repro.util.units import (
    GB,
    KB,
    MB,
    Mbps,
    bytes_to_bits,
    transmission_time,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "Mbps",
    "bitmap_bytes",
    "bytes_to_bits",
    "mean",
    "mean_ci",
    "transmission_time",
]
