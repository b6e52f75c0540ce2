"""Unit helpers.

The kernel clock is in **seconds** and sizes are in **bytes**.  The paper
reports latencies in microseconds and bandwidths in megabits per second
(Mbps), so conversion helpers live here to keep magic constants out of the
models.
"""

from __future__ import annotations

__all__ = [
    "US",
    "MS",
    "NS",
    "KB",
    "MB",
    "usec",
    "nsec",
    "to_usec",
    "mbps_to_bytes_per_sec",
    "bytes_per_sec_to_mbps",
]

#: One microsecond in seconds.
US = 1e-6
#: One millisecond in seconds.
MS = 1e-3
#: One nanosecond in seconds.
NS = 1e-9
#: One kibibyte in bytes (the paper's "KB" is binary).
KB = 1024
#: One mebibyte in bytes.
MB = 1024 * 1024


def usec(x: float) -> float:
    """Convert microseconds to seconds."""
    return x * US


def nsec(x: float) -> float:
    """Convert nanoseconds to seconds."""
    return x * NS


def to_usec(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds / US


def mbps_to_bytes_per_sec(mbps: float) -> float:
    """Megabits/s (paper's unit, 10^6 bits) to bytes/s."""
    return mbps * 1e6 / 8.0


def bytes_per_sec_to_mbps(bps: float) -> float:
    """Bytes/s to megabits/s (10^6 bits)."""
    return bps * 8.0 / 1e6

