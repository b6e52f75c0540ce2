"""Query types and workload generators (paper Sections 2 and 5.2).

Three query kinds drive the experiments:

* **complete update** — "a completely new image is requested": fetch
  every block (bandwidth-sensitive);
* **partial update** — "the image being viewed is moved slightly":
  fetch only the few excess blocks along the pan direction
  (latency-sensitive; the Figure 7/8 experiments use one block);
* **zoom** — "covers a small region of the image, requiring only 4
  data chunks to be retrieved" (Figure 9's first query type).

A :class:`Workload` is a deterministic timed sequence of queries built
by the generator helpers at the bottom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.apps.dataset import ImageDataset
from repro.errors import WorkloadError

__all__ = [
    "Query",
    "complete_update",
    "partial_update",
    "zoom_query",
    "TimedQuery",
    "Workload",
    "steady_rate_workload",
    "mixed_query_workload",
]

_query_ids = itertools.count(1)


@dataclass
class Query:
    """One visualization-client request.

    Attributes
    ----------
    kind:
        "complete", "partial" or "zoom".
    blocks:
        Block ids to fetch (resolved against a dataset at build time).
    """

    kind: str
    blocks: List[int]
    query_id: int = field(default_factory=lambda: next(_query_ids))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def bytes_fetched(self, dataset: ImageDataset) -> int:
        """Data volume this query pulls off storage."""
        return self.n_blocks * dataset.block_bytes


def complete_update(dataset: ImageDataset) -> Query:
    """A new-image request: every block."""
    return Query("complete", list(range(dataset.n_blocks)))


def partial_update(dataset: ImageDataset, n_blocks: int = 1, start: int = 0) -> Query:
    """A small pan: the *n_blocks* excess blocks entering the view."""
    if not 1 <= n_blocks <= dataset.n_blocks:
        raise WorkloadError(
            f"partial update of {n_blocks} blocks on a "
            f"{dataset.n_blocks}-block dataset"
        )
    blocks = [(start + i) % dataset.n_blocks for i in range(n_blocks)]
    return Query("partial", blocks)


def zoom_query(dataset: ImageDataset, chunks: int = 4, start: int = 0) -> Query:
    """A magnification query touching *chunks* blocks (paper: 4).

    When the dataset has fewer blocks than *chunks* (or is not
    partitioned at all), the zoom degenerates to fetching everything —
    exactly the paper's "if the dataset is not partitioned into chunks,
    a query has to access the entire data".
    """
    n = min(chunks, dataset.n_blocks)
    blocks = [(start + i) % dataset.n_blocks for i in range(n)]
    return Query("zoom", blocks)


@dataclass
class TimedQuery:
    """A query with its arrival time (seconds).

    ``after_previous`` marks probe queries submitted only once the
    preceding query has completed (an interactive user pans *after*
    seeing the frame) — at ``at`` or completion time, whichever is
    later.
    """

    at: float
    query: Query
    after_previous: bool = False


@dataclass
class Workload:
    """A deterministic, time-ordered sequence of queries."""

    queries: List[TimedQuery]

    def __post_init__(self) -> None:
        times = [tq.at for tq in self.queries]
        if times != sorted(times):
            raise WorkloadError("workload queries must be time-ordered")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def of_kind(self, kind: str) -> List[TimedQuery]:
        """All queries of one kind."""
        return [tq for tq in self.queries if tq.query.kind == kind]

    @property
    def span(self) -> float:
        """Time of the last arrival."""
        return self.queries[-1].at if self.queries else 0.0


def steady_rate_workload(
    dataset: ImageDataset,
    rate: float,
    duration: float,
    partial_every: Optional[int] = None,
    partial_blocks: int = 1,
) -> Workload:
    """Complete updates at *rate*/s for *duration* seconds, optionally
    interleaving one partial update after every *partial_every*-th
    complete update (the Figure 7 measurement workload: partial-update
    latency observed while the frame-rate guarantee is being served).
    """
    if rate <= 0 or duration <= 0:
        raise WorkloadError("rate and duration must be positive")
    out: List[TimedQuery] = []
    period = 1.0 / rate
    n = int(duration * rate)
    start_block = 0
    for i in range(n):
        t = i * period
        out.append(TimedQuery(t, complete_update(dataset)))
        if partial_every and (i + 1) % partial_every == 0:
            # The user pans after seeing the frame: the probe goes in
            # once the complete update it follows has been delivered.
            q = partial_update(dataset, partial_blocks, start=start_block)
            start_block = (start_block + partial_blocks) % dataset.n_blocks
            out.append(TimedQuery(t, q, after_previous=True))
    return Workload(out)


def mixed_query_workload(
    dataset: ImageDataset,
    n_queries: int,
    fraction_complete: float,
    rng: np.random.Generator,
    zoom_chunks: int = 4,
    exact: bool = False,
) -> Workload:
    """Figure 9's mix: each query is a complete update with probability
    *fraction_complete*, else a zoom; queries are back-to-back (each
    submitted when the previous finishes, which the app enforces — the
    workload carries them all at t=0 and the repository serializes).

    With ``exact=True`` the complete-update count is exactly
    ``round(fraction * n)`` and only the ordering is randomized —
    useful for smooth curves from short runs.
    """
    if not 0.0 <= fraction_complete <= 1.0:
        raise WorkloadError("fraction_complete must be in [0, 1]")
    if exact:
        n_complete = round(fraction_complete * n_queries)
        kinds = ["complete"] * n_complete + ["zoom"] * (n_queries - n_complete)
        rng.shuffle(kinds)
    else:
        kinds = [
            "complete" if rng.random() < fraction_complete else "zoom"
            for _ in range(n_queries)
        ]
    out: List[TimedQuery] = []
    start = 0
    for kind in kinds:
        if kind == "complete":
            q = complete_update(dataset)
        else:
            q = zoom_query(dataset, zoom_chunks, start=start)
            start = (start + zoom_chunks) % dataset.n_blocks
        out.append(TimedQuery(0.0, q))
    return Workload(out)
