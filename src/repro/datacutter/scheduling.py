"""Buffer scheduling across transparent copies (paper Section 4.1).

When a producer filter writes to a logical stream whose consumer has
transparent copies, a *write scheduler* picks the copy each buffer goes
to.  DataCutter supports:

* **Round-Robin (RR)** — strict rotation.  With bounded outstanding
  buffers per consumer, a slow node causes head-of-line blocking: the
  rotation *must* wait for the slow copy's slot, which is exactly the
  pathology Figure 10 measures.
* **Demand-Driven (DD)** — "a producer filter chooses the consumer
  filter with the minimum number of unacknowledged buffers".  Consumers
  acknowledge a buffer when they start processing it, so fast copies
  drain their slots quicker and attract more work (Figure 11).

Both schedulers bound outstanding (unacknowledged) buffers per consumer
at ``max_outstanding`` (default 2: one in processing + one in flight —
the classic double-buffering depth for pipelining).

Every per-buffer decision here is O(1) in the number of consumer
copies: liveness is a counter (not an ``all(dead)`` scan) and the
demand-driven choice reads the lowest non-empty unacked bucket instead
of scanning every copy.  That independence from fan-out is what lets
the ``serve`` scenario (docs/SERVING.md) grow from 64 to 1024 hosts at
flat per-event cost.

:class:`AdmissionQueue` is the serving-side complement: a bounded
drop-tail queue in front of a filter, so offered load beyond capacity
is *refused and counted* instead of growing an unbounded backlog.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import (Any, Deque, Dict, Generator, Iterable, List, Optional,
                    Set)

from repro.errors import DataCutterError
from repro.sim import Event, Simulator
from repro.sim.monitor import Tally

__all__ = [
    "WriteScheduler",
    "RoundRobinScheduler",
    "DemandDrivenScheduler",
    "make_scheduler",
    "AdmissionQueue",
    "ReplicationPolicy",
]

DEFAULT_MAX_OUTSTANDING = 2

#: Loser-cancellation modes (docs/TAILS.md):
#: ``lazy`` — losers are cancelled the moment a winner is decided:
#: queued replicas are retracted before they start and in-flight
#: compute is torn down through the kernel's lazy ``Event.cancel``
#: (an O(1) heap tombstone, PR 3);
#: ``none`` — losers run to completion and are retracted only when they
#: try to finish (the ablation that measures what cancellation saves).
CANCEL_MODES = ("lazy", "none")


@dataclass(frozen=True)
class ReplicationPolicy:
    """Replicated dispatch: send each unit of work to *k* copies, take
    the first finisher (RepNet's recipe, restated at the filter layer).

    ``hedge_us`` staggers the duplicates: replica 0 is dispatched
    immediately and replicas 1..k-1 only if the unit is still undecided
    ``hedge_us`` microseconds later — Dean's hedged request, which buys
    the tail recovery of replication at a fraction of the duplicate
    load.  ``hedge_us=0`` (the default) races all k replicas from the
    start (the configuration the determinism tests exercise); the tails
    scenario's own default is
    :data:`~repro.apps.tails.DEFAULT_HEDGE_US`.
    """

    k: int = 1
    cancel: str = "lazy"
    hedge_us: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"replication factor k must be >= 1, got {self.k}")
        if self.cancel not in CANCEL_MODES:
            raise ValueError(
                f"cancel must be one of {CANCEL_MODES}, got {self.cancel!r}"
            )
        if self.hedge_us < 0:
            raise ValueError(f"hedge_us must be >= 0, got {self.hedge_us}")


class WriteScheduler:
    """Base: tracks unacknowledged buffers per consumer copy.

    Subclasses implement :meth:`_pick`, returning the index of an
    *eligible* consumer (one with a free slot) or ``None`` if a policy
    constraint forces waiting even though some consumer has room (RR's
    head-of-line rule).
    """

    policy_name = "base"

    def __init__(
        self,
        sim: Simulator,
        n_consumers: int,
        max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
    ) -> None:
        if n_consumers < 1:
            raise DataCutterError("scheduler needs at least one consumer")
        if max_outstanding < 1:
            raise DataCutterError("max_outstanding must be >= 1")
        self.sim = sim
        self.n_consumers = n_consumers
        self.max_outstanding = max_outstanding
        self.unacked: List[int] = [0] * n_consumers
        self.sent_counts: List[int] = [0] * n_consumers
        self.acked_counts: List[int] = [0] * n_consumers
        #: Per-consumer timestamp of the most recent send (experiments
        #: derive reaction times from these).
        self.last_send_at: List[float] = [0.0] * n_consumers
        self.last_ack_at: List[float] = [0.0] * n_consumers
        self.ack_delay: List[Tally] = [Tally(f"ack_delay[{i}]") for i in range(n_consumers)]
        #: Copies currently written off by graceful degradation (see
        #: repro.faults): dead copies never receive new buffers.
        self.dead: List[bool] = [False] * n_consumers
        #: Buffers written off by mark_dead(drop_outstanding=True).
        self.lost_counts: List[int] = [0] * n_consumers
        #: acquire_k calls that returned fewer than the k asked for
        #: (not enough distinct live copies): replication degrades,
        #: never raises.
        self.replication_clamped = 0
        #: Slots reserved by acquire()/acquire_k() and released unsent
        #: via cancel_reservation() (hedges decided before dispatch).
        self.reservations_cancelled = 0
        # Liveness as a counter so the all-dead check in acquire() is
        # O(1) instead of an O(n_consumers) scan per buffer.
        self._n_dead = 0
        self._waiters: List[Event] = []

    # -- acquisition -------------------------------------------------------------------

    def acquire(self) -> Generator[Event, Any, int]:
        """Block until the policy can place a buffer; returns the
        consumer index with its slot reserved."""
        while True:
            if self._n_dead == self.n_consumers:
                raise DataCutterError(
                    "all consumer copies are dead; cannot place buffer"
                )
            idx = self._pick()
            if idx is not None:
                self.unacked[idx] += 1
                self.sent_counts[idx] += 1
                self.last_send_at[idx] = self.sim.now
                self._on_slots_changed(idx)
                return idx
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            yield waiter

    def acquire_k(
        self, k: int, exclude: Iterable[int] = ()
    ) -> Generator[Event, Any, List[int]]:
        """Reserve slots on *k* **distinct** live copies; returns their
        indexes in pick order (least-loaded first under DD).

        The replicated-dispatch primitive (:class:`ReplicationPolicy`):
        each returned index holds one reserved slot, exactly as after
        :meth:`acquire`.  Copies in *exclude* — typically the replicas a
        unit of work already has — are never picked, so a host holding
        one replica of a unit is never handed a second one (and the DD
        bucket index never double-counts it).

        When fewer than *k* distinct live copies exist the call
        *degrades*: it returns what it could reserve (possibly an empty
        list when *exclude* covers every live copy) and counts one
        ``replication_clamped``.  It blocks — like :meth:`acquire` —
        only while eligible copies exist but all their slots are in
        use.  Raises only when every copy is dead.
        """
        if k < 1:
            raise DataCutterError(f"acquire_k needs k >= 1, got {k}")
        picked: List[int] = []
        barred: Set[int] = {
            i for i in exclude if 0 <= i < self.n_consumers
        }
        while True:
            live = self.n_consumers - self._n_dead
            if live == 0 and not picked:
                raise DataCutterError(
                    "all consumer copies are dead; cannot place buffer"
                )
            barred_live = sum(1 for i in barred if not self.dead[i])
            target = min(k, len(picked) + max(0, live - barred_live))
            if len(picked) >= target:
                if len(picked) < k:
                    self.replication_clamped += 1
                return picked
            idx = self._pick_excluding(barred)
            if idx is not None:
                self.unacked[idx] += 1
                self.sent_counts[idx] += 1
                self.last_send_at[idx] = self.sim.now
                self._on_slots_changed(idx)
                picked.append(idx)
                barred.add(idx)
                continue
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            yield waiter

    def cancel_reservation(self, idx: int) -> None:
        """Release a slot reserved by :meth:`acquire`/:meth:`acquire_k`
        on which nothing was (or will be) sent — a hedge replica whose
        unit was decided before its dispatch fired.  The send is
        uncounted and no ack-delay sample is recorded, so scheduler
        statistics only ever describe buffers that hit the wire."""
        if not 0 <= idx < self.n_consumers:
            raise DataCutterError(f"cancel_reservation on unknown consumer {idx}")
        if self.unacked[idx] > 0:
            self.unacked[idx] -= 1
        elif self.lost_counts[idx] > 0:
            # The slot was already written off by
            # mark_dead(drop_outstanding=True); un-write it off.
            self.lost_counts[idx] -= 1
        else:
            raise DataCutterError(
                f"consumer {idx} has no reservation to cancel"
            )
        if self.sent_counts[idx] > 0:
            self.sent_counts[idx] -= 1
        self.reservations_cancelled += 1
        self._on_slots_changed(idx)
        self._wake()

    def on_ack(self, idx: int) -> None:
        """A consumer acknowledged one buffer (it started processing)."""
        if not 0 <= idx < self.n_consumers:
            raise DataCutterError(f"ack from unknown consumer {idx}")
        if self.unacked[idx] <= 0:
            raise DataCutterError(f"consumer {idx} over-acknowledged")
        self.unacked[idx] -= 1
        self.acked_counts[idx] += 1
        self.last_ack_at[idx] = self.sim.now
        self.ack_delay[idx].record(self.sim.now - self.last_send_at[idx])
        self._on_slots_changed(idx)
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.succeed()

    # -- graceful degradation (see repro.faults) ------------------------------

    def mark_dead(self, idx: int, drop_outstanding: bool = False) -> None:
        """Stop routing buffers to copy *idx* (its host crashed).

        By default in-flight (unacknowledged) buffers keep their slots
        — they complete when the host restarts and replays its backlog.
        With *drop_outstanding* they are written off into
        ``lost_counts`` and their slots freed (a restarted filter that
        will not resume old work).  Waiters are woken either way so the
        policy can re-route pending sends around the dead copy.
        """
        if not 0 <= idx < self.n_consumers:
            raise DataCutterError(f"mark_dead on unknown consumer {idx}")
        if not self.dead[idx]:
            self.dead[idx] = True
            self._n_dead += 1
        if drop_outstanding and self.unacked[idx]:
            self.lost_counts[idx] += self.unacked[idx]
            self.unacked[idx] = 0
        self._on_slots_changed(idx)
        self._wake()

    def mark_alive(self, idx: int) -> None:
        """Copy *idx* is back (host restart): resume routing to it."""
        if not 0 <= idx < self.n_consumers:
            raise DataCutterError(f"mark_alive on unknown consumer {idx}")
        if self.dead[idx]:
            self.dead[idx] = False
            self._n_dead -= 1
        self._on_slots_changed(idx)
        self._wake()

    # -- policy ---------------------------------------------------------------------------

    def _pick(self) -> Optional[int]:
        raise NotImplementedError

    def _pick_excluding(self, barred: Set[int]) -> Optional[int]:
        """An eligible copy outside *barred*, or ``None`` to wait.

        Replica picks are demand-driven whatever the stream's base
        policy: the reference implementation scans for the minimum
        unacknowledged count (lowest index on ties).
        :class:`DemandDrivenScheduler` overrides it with its bucket
        index so the pick stays O(log n) and rotation-fair.
        """
        best: Optional[int] = None
        for i in range(self.n_consumers):
            if i in barred or not self._has_room(i):
                continue
            if best is None or self.unacked[i] < self.unacked[best]:
                best = i
        return best

    def _on_slots_changed(self, idx: int) -> None:
        """Hook: copy *idx*'s eligibility or unacked count changed.

        Called after every mutation of ``unacked``/``dead`` so policies
        that keep an index over the slot state (DD's unacked buckets)
        can maintain it incrementally instead of rescanning.
        """

    def _has_room(self, idx: int) -> bool:
        return not self.dead[idx] and self.unacked[idx] < self.max_outstanding

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} unacked={self.unacked}>"


class RoundRobinScheduler(WriteScheduler):
    """Strict rotation; waits (head-of-line) for the next copy's slot."""

    policy_name = "rr"

    def __init__(self, sim: Simulator, n_consumers: int, **kw) -> None:
        super().__init__(sim, n_consumers, **kw)
        self._next = 0

    def _pick(self) -> Optional[int]:
        # Dead copies drop out of the rotation entirely (degradation);
        # the head-of-line rule applies only to the next *live* copy.
        while self.dead[self._next]:
            self._next = (self._next + 1) % self.n_consumers
        if self._has_room(self._next):
            idx = self._next
            self._next = (self._next + 1) % self.n_consumers
            return idx
        return None  # wait for *this* consumer, even if others are free


class DemandDrivenScheduler(WriteScheduler):
    """Min-unacknowledged-buffers choice (paper's DD mechanism).

    The choice is indexed: eligible copies live in sorted per-count
    buckets (``_buckets[c]`` = live copies with ``unacked == c`` and a
    free slot), so picking the minimum-unacked copy is a bisect in the
    lowest non-empty bucket — O(log n) per buffer instead of the
    obvious O(n) scan — while reproducing the scan's decisions exactly:
    the minimum unacked count wins, ties broken by the first copy at or
    after ``_rotation`` in index order, wrapping.
    """

    policy_name = "dd"

    def __init__(self, sim: Simulator, n_consumers: int, **kw) -> None:
        super().__init__(sim, n_consumers, **kw)
        self._rotation = 0  # tie-break fairness
        # _buckets[c] is sorted; _where[i] is copy i's bucket, or None
        # when it is ineligible (dead, or all slots in use).
        self._buckets: List[List[int]] = [[] for _ in range(self.max_outstanding)]
        self._buckets[0] = list(range(n_consumers))
        self._where: List[Optional[int]] = [0] * n_consumers

    def _on_slots_changed(self, idx: int) -> None:
        new = self.unacked[idx] if self._has_room(idx) else None
        old = self._where[idx]
        if new == old:
            return
        if old is not None:
            bucket = self._buckets[old]
            del bucket[bisect_left(bucket, idx)]
        if new is not None:
            insort(self._buckets[new], idx)
        self._where[idx] = new

    def _pick(self) -> Optional[int]:
        for bucket in self._buckets:
            if bucket:
                pos = bisect_left(bucket, self._rotation)
                idx = bucket[pos] if pos < len(bucket) else bucket[0]
                self._rotation = (idx + 1) % self.n_consumers
                return idx
        return None

    def _pick_excluding(self, barred: Set[int]) -> Optional[int]:
        # Same bucket walk as _pick, skipping barred copies: a bucket
        # consisting entirely of copies that already hold a replica of
        # this unit falls through to the next count — the index never
        # double-counts a copy toward one unit's replica set.
        for bucket in self._buckets:
            n = len(bucket)
            if not n:
                continue
            pos = bisect_left(bucket, self._rotation)
            for off in range(n):
                idx = bucket[(pos + off) % n]
                if idx not in barred:
                    self._rotation = (idx + 1) % self.n_consumers
                    return idx
        return None


_POLICIES = {
    "rr": RoundRobinScheduler,
    "dd": DemandDrivenScheduler,
}


def make_scheduler(
    policy: str,
    sim: Simulator,
    n_consumers: int,
    max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
) -> WriteScheduler:
    """Factory: ``"rr"`` or ``"dd"``."""
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise DataCutterError(
            f"unknown scheduling policy {policy!r}; have {sorted(_POLICIES)}"
        ) from None
    return cls(sim, n_consumers, max_outstanding=max_outstanding)


class AdmissionQueue:
    """Bounded drop-tail queue in front of a filter (admission control).

    The open-loop serving scenario (repro.apps.serve) offers arrivals
    at a rate the pipeline does not control.  Unlike
    :class:`repro.sim.resources.Store`, whose ``put`` always succeeds
    and whose backlog can grow without bound, an admission queue has a
    fixed *capacity*: :meth:`offer` either enqueues the item or refuses
    it on the spot, and every refusal is **counted** in ``dropped`` —
    overload shows up as a measured drop rate, never as silent loss or
    an ever-growing heap.

    Consumers run ``item = yield from queue.get()`` and treat ``None``
    as end-of-stream: after :meth:`close`, queued items still drain in
    FIFO order and only then does ``get`` return ``None``, so a closed
    queue quiesces the simulation without losing admitted work.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "admission") -> None:
        if capacity < 1:
            raise DataCutterError("admission queue capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._waiters: List[Event] = []
        self._closed = False
        #: Items accepted by :meth:`offer`.
        self.admitted = 0
        #: Items refused by :meth:`offer` (queue full or closed).
        self.dropped = 0
        #: Maximum queue depth observed.
        self.high_water = 0

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def offer(self, item: Any) -> bool:
        """Try to enqueue *item*; returns False (and counts a drop)
        when the queue is full or closed.  Never blocks the caller —
        that is what makes the generator open-loop."""
        if self._closed or len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.admitted += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        self._wake()
        return True

    def get(self) -> Generator[Event, Any, Any]:
        """Generator: next item in FIFO order, or ``None`` once the
        queue is closed and drained."""
        while True:
            if self._items:
                return self._items.popleft()
            if self._closed:
                return None
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            yield waiter

    def close(self) -> None:
        """No further admissions; wake consumers so they drain and
        return.  Idempotent."""
        self._closed = True
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.succeed()

    def stats(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "dropped": self.dropped,
            "high_water": self.high_water,
            "depth": len(self._items),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<AdmissionQueue {self.name!r} depth={len(self._items)}/"
                f"{self.capacity} admitted={self.admitted} dropped={self.dropped}>")
