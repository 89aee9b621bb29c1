"""Shared utilities: units, bitmap arithmetic, statistics, logging."""

from repro.util.bitmaps import bitmap_bytes
from repro.util.stats import mean, mean_ci, percentile, summarize
from repro.util.units import (
    GB,
    KB,
    MB,
    Mbps,
    bits_to_bytes,
    bytes_to_bits,
    fmt_bytes,
    fmt_rate,
    kbps,
    transmission_time,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "Mbps",
    "bitmap_bytes",
    "bits_to_bytes",
    "bytes_to_bits",
    "fmt_bytes",
    "fmt_rate",
    "kbps",
    "mean",
    "mean_ci",
    "percentile",
    "summarize",
    "transmission_time",
]
