"""Statistics collectors for simulation output.

The experiments report means, rates, and distributions of measured
quantities (per-query latency, per-update throughput, reaction times).
These collectors are deliberately tiny and allocation-free on the hot
path — a `record()` is a few float ops — because a single benchmark run
can record hundreds of thousands of samples.

* :class:`Tally`          — streaming mean/variance/min/max (Welford).
* :class:`SeriesRecorder` — raw ``(time, value)`` pairs for plotting.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Tally", "SeriesRecorder"]


class Tally:
    """Streaming sample statistics via Welford's algorithm.

    Numerically stable for long runs; O(1) memory.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def record(self, x: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean (NaN with no samples)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN with <2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    def merge(self, other: "Tally") -> None:
        """Fold *other*'s samples into this tally (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total_n = n1 + n2
        self._mean += delta * n2 / total_n
        self._m2 += other._m2 + delta * delta * n1 * n2 / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tally {self.name!r} n={self.count} mean={self.mean:.6g}>"


class SeriesRecorder:
    """Accumulates raw ``(time, value)`` samples for later analysis."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, value: float) -> None:
        """Append one sample."""
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as float arrays."""
        return np.asarray(self.times, float), np.asarray(self.values, float)

    def rate(self, window: Optional[Tuple[float, float]] = None) -> float:
        """Samples per unit time over *window* (default: observed span)."""
        if not self.times:
            return 0.0
        t = np.asarray(self.times, float)
        if window is None:
            lo, hi = float(t[0]), float(t[-1])
        else:
            lo, hi = window
        span = hi - lo
        if span <= 0:
            return math.nan
        n = int(np.count_nonzero((t >= lo) & (t <= hi)))
        return n / span

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SeriesRecorder {self.name!r} n={len(self.times)}>"
