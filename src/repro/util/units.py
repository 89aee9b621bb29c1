"""Byte / bandwidth unit helpers.

All sizes in this codebase are plain ``int`` bytes and all rates are
``float`` bits per second; these helpers exist so call sites read like the
paper ("1 KB blocks", "1∼5 Mbps ad-hoc WiFi", "0.016 Mbps uplink").
"""

from __future__ import annotations

#: One kibibyte in bytes (the paper's "1KB block").
KB = 1024
#: One mebibyte in bytes.
MB = 1024 * KB
#: One gibibyte in bytes.
GB = 1024 * MB


def Mbps(x: float) -> float:
    """Megabits per second -> bits per second."""
    return x * 1_000_000.0


def bytes_to_bits(n_bytes: float) -> float:
    """Bytes -> bits."""
    return n_bytes * 8.0


def transmission_time(size_bytes: float, bandwidth_bps: float) -> float:
    """Seconds needed to push ``size_bytes`` through ``bandwidth_bps``."""
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return bytes_to_bits(size_bytes) / bandwidth_bps
