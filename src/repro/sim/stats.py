"""Output analysis for finished simulation samples.

* :class:`Summary` — five-number roll-up of a finished series (the
  benchmark harness uses it for per-layer trace accounting);
* :func:`percentile` — exact nearest-rank percentile of a finished
  sample (the serving and tails suites' p50/p99 SLO metrics; there is
  no binning or interpolation error, so the values are reproducible
  bit-for-bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile: the smallest sample such that at
    least ``q`` percent of the sample set is <= it.

    No interpolation — the result is always an observed sample, which
    is the standard SLO reading of "p99 latency" and keeps the value
    deterministic under float round-off.

    Examples
    --------
    >>> percentile([3.0, 1.0, 2.0, 4.0], 50)
    2.0
    >>> percentile([3.0, 1.0, 2.0, 4.0], 99)
    4.0
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q!r} outside [0, 100]")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Summary:
    """Count/total/mean/min/max of a finished sample series.

    A cheap, JSON-friendly roll-up for reporting — complements the
    streaming monitors in :mod:`repro.sim.monitor` when the series is
    already in hand.

    Examples
    --------
    >>> Summary.of([2.0, 4.0]).mean
    3.0
    >>> Summary.of([]).count
    0
    """

    count: int
    total: float
    mean: float
    lo: float
    hi: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        """Summarize *values* (NaN-safe only in that [] gives zeros)."""
        vals = [float(v) for v in values]
        if not vals:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        total = math.fsum(vals)
        return cls(len(vals), total, total / len(vals), min(vals), max(vals))
