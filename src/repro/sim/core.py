"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event heap.  Everything
else in the library — NIC DMA engines, TCP stacks, DataCutter filters —
is expressed as processes and events scheduled on one of these.

Time is a ``float`` in **seconds**.  Helper constants for common units live
in :mod:`repro.sim.units`.

Determinism
-----------
Heap entries are ordered by ``(time, priority, sequence)`` where the
sequence number increments per scheduled event, so simultaneous events are
processed in scheduling order.  Given the same seed (see
:mod:`repro.sim.rng`) a simulation is bit-for-bit reproducible.

Hot path
--------
The run loop is deliberately allocation-light (see docs/ARCHITECTURE.md,
"Kernel performance"):

* **Tombstone heap** — :meth:`Event.cancel` marks the heap entry dead in
  O(1); the loop discards tombstones on pop without running callbacks or
  advancing the clock.  When tombstones dominate the heap a periodic
  compaction sweeps them out, preserving ``(time, priority, seq)`` order.
* **Timeout free list** — processed :class:`Timeout` instances that are
  provably unreferenced outside the kernel (a ``sys.getrefcount`` probe)
  are re-armed by the next :meth:`timeout` call instead of reallocated.
* **One heap, one loop** — the pending set is a plain ``list`` kept in
  heap order by C :mod:`heapq`, and :meth:`run`, :meth:`run_all` and
  :meth:`step` all drive the single inlined :meth:`_run_loop`.
* **Same-instant hand-off** — while an unbudgeted :meth:`run` resumes a
  process that is its event's only callback, ``Resource.request``,
  ``Store.get`` and ``Container.get`` return an event already processed
  when they can serve it at once and nothing else is due now: that event
  would have been the next pop, resuming the same process (see
  :meth:`_run_loop`).
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from heapq import heapify, heappop, heappush
from types import MethodType
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.errors import EventLifecycleError, StopSimulation
from repro.sim.events import (
    _LOCAL_REFS,
    _PROCESSED_MARK,
    _UNSET,
    _getrefcount,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process

__all__ = ["Simulator", "global_events_processed", "simulation_mode"]

_INF = float("inf")

#: Process-wide count of events processed by every Simulator, flushed at
#: the end of each run loop.  The bench runner snapshots it
#: around a figure driver to report kernel events per BenchRecord.
_GLOBAL_EVENTS = [0]


def global_events_processed() -> int:
    """Total events processed by all simulators in this process so far."""
    return _GLOBAL_EVENTS[0]


def simulation_mode(mode: str) -> AbstractContextManager:
    """Context manager for running a block in simulation mode *mode*.

    Packet mode -- one event chain per segment, descriptor and frame --
    is the only mode, so ``simulation_mode("packet")`` is a no-op and
    any other *mode* raises :class:`ValueError`.  It stays because the
    host-performance benchmark (``perf/child.py``) pins every
    repetition with ``with simulation_mode("packet"):``.
    """
    if mode != "packet":
        raise ValueError(
            f"unknown simulation mode {mode!r}; the only mode is 'packet'"
        )
    return nullcontext()


class Simulator:
    """Event loop + virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the clock (seconds).  Defaults to 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(1.5)
    ...     return "done"
    >>> p = sim.process(hello(sim))
    >>> sim.run()
    >>> sim.now
    1.5
    >>> p.value
    'done'
    """

    #: Heap priority for kernel-internal events (process starts).
    URGENT = 0
    #: Default heap priority for user events.
    NORMAL = 1

    #: Cap on the Timeout free list; beyond this, processed timeouts are
    #: simply dropped for the garbage collector.
    _POOL_MAX = 4096
    #: Tombstone compaction trigger: compact when at least this many
    #: cancelled entries sit on the heap *and* they are at least three
    #: quarters of it.  Below the threshold tombstones are cheaper to
    #: discard on pop (and the discard path feeds the Timeout free list);
    #: compaction is the backstop bounding the heap at ~4x the live set.
    _COMPACT_MIN = 1024

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Pending ``(time, priority, seq, event)`` entries in heap order.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Cancelled-but-unpopped entries currently on the heap.
        self._tombstones = 0
        #: Free lists of processed, unreferenced Timeout/Event instances.
        self._timeout_pool: List[Timeout] = []
        self._event_pool: List[Event] = []
        #: Events processed by this simulator (tombstone discards excluded).
        self.events_processed = 0
        #: High-water mark of the heap, observed at run-loop iterations.
        self.heap_peak = 0
        #: Allocations avoided via the Timeout/Event free lists.
        self.pool_hits = 0
        #: Tombstone compaction sweeps performed.
        self.compactions = 0
        #: Events handed straight to the process that asked for them
        #: (counted in ``events_processed`` too; see :meth:`_run_loop`).
        self.handoffs = 0
        #: True only while the run loop resumes a process that may take
        #: a same-instant hand-off; the sim primitives read it.
        self._inline = False

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the heap is empty.

        Drains any tombstoned entries from the top so lazy cancellation
        stays invisible to callers.
        """
        heap = self._heap
        while heap and heap[0][3]._gen != heap[0][2]:
            heappop(heap)
            self._tombstones -= 1
        return heap[0][0] if heap else _INF

    # -- scheduling ------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Put a *triggered* event on the heap ``delay`` seconds from now."""
        if delay < 0:
            raise EventLifecycleError(f"cannot schedule into the past ({delay})")
        if delay != delay:
            raise EventLifecycleError(
                "cannot schedule at NaN delay (would corrupt heap ordering)"
            )
        seq = self._seq
        heappush(self._heap, (self._now + delay, priority, seq, event))
        event._gen = seq
        self._seq = seq + 1

    def _hand_off(self, event: Event, value: Any) -> bool:
        """Process *event* in place with *value* if nothing is due now.

        Called by the sim primitives only while ``_inline`` is set, for
        an event they could schedule at once; see :meth:`_run_loop` for
        why the hand-off is exact.  Returns False, leaving *event*
        untouched, when an entry is due at the current instant.
        """
        heap = self._heap
        if heap and heap[0][0] == self._now:
            return False
        event._ok = True
        event._value = value
        event.callbacks = _PROCESSED_MARK
        self.handoffs += 1
        return True

    # -- lazy cancellation ------------------------------------------------------

    def _compact(self) -> None:
        """Sweep tombstoned entries off the heap in one O(heap) pass.

        Triggered by :meth:`Event.cancel` only when tombstones are at
        least three quarters of the heap *and* at least ``_COMPACT_MIN``
        of them sit on it — both bounds matter: the fraction keeps the
        sweep from running while tombstones are still cheap to discard
        on pop, the floor keeps tiny heaps from compacting constantly.
        Amortized over the cancels that crossed the threshold this makes
        cancellation O(1) per call with the heap bounded at ~4x the live
        set.

        Determinism is preserved exactly: an entry is live iff its
        event's generation stamp still equals the entry's sequence
        number, and live entries keep their original ``(time, priority,
        seq)`` keys through the re-heapify, so pop order is unchanged.
        The list object is reused in place because the run loop holds a
        direct reference.
        """
        heap = self._heap
        live = [entry for entry in heap if entry[3]._gen == entry[2]]
        heapify(live)
        heap[:] = live
        self._tombstones = 0
        self.compactions += 1

    # -- factory helpers --------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event, to be succeeded/failed by the caller.

        Served from the free list of processed, provably-unreferenced
        events when available (entries are fully reset to PENDING before
        they are pooled).
        """
        pool = self._event_pool
        if pool:
            self.pool_hits += 1
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now with *value*.

        Serves recycled instances from the free list when available: the
        run loop pools processed timeouts that a refcount probe shows are
        referenced by nobody but the kernel, so steady-state timer churn
        allocates nothing.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay {delay!r}")
            if delay != delay:
                raise EventLifecycleError(
                    "cannot schedule at NaN delay (would corrupt heap ordering)"
                )
            # Re-arm inline: this is the hottest allocation site in the
            # library, one attribute store saved per field matters.
            # ``callbacks``/``defused`` were reset when the run loop pooled
            # the instance, and a pooled timeout was never cancelled.
            t = pool.pop()
            t.delay = delay
            t._ok = True
            t._value = value
            seq = self._seq
            heappush(self._heap, (self._now + delay, 1, seq, t))
            t._gen = seq
            self._seq = seq + 1
            self.pool_hits += 1
            return t
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Register *generator* as a process; it starts at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that fires when every event in *events* has fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that fires when any event in *events* has fired."""
        return AnyOf(self, list(events))

    # -- the loop ---------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        A budget-1 pass of :meth:`_run_loop`.  Tombstoned (cancelled)
        entries are discarded silently; they do not count as the one
        processed event.  Raises :class:`StopSimulation` when no live
        event is pending.  The budget check returns before the free-list
        probe, so the processed event is never recycled.
        """
        before = self.events_processed
        self._run_loop(_INF, None, 1)
        if self.events_processed == before:
            raise StopSimulation("event heap is empty")

    def _run_loop(
        self,
        stop_at: float,
        stop_event: Optional[Event],
        budget: Optional[int] = None,
    ) -> None:
        """The one inlined hot loop behind :meth:`run`, :meth:`run_all`
        and :meth:`step`.

        Everything touched per event is bound to a local: the heap (list
        identity is stable — compaction rewrites it in place), heappop,
        the free lists, and the refcount probe.  Counter attributes are flushed
        back in the ``finally`` block so exceptions (including simulation
        failures propagated out of callbacks) keep the totals honest.

        **Same-instant hand-off.**  When the loop has no budget (plain
        :meth:`run`) and the event it dispatches is not the stop event,
        a process resume that is the event's only callback runs with
        ``_inline`` set.  During it, a primitive that can serve its
        caller at once (``Resource.request``, ``Store.get``,
        ``Container.get``) checks that no heap entry is due at the
        current instant and, if none is, returns its event already
        processed instead of pushing it.  That is exact: the pushed
        entry would have been ``(now, NORMAL, seq)`` with the highest
        sequence number, so with nothing else due now it would have been
        the very next pop, and its only waiter is the process that just
        yielded it, with nothing run in between.  The process therefore
        resumes in the same order at the same simulated time; the event
        still counts in ``events_processed`` (via :attr:`handoffs`).  A
        budget (``run_all``, ``step``) or the stop event of
        ``run(until=event)`` could end the loop before that next pop, a
        second callback would run between push and pop, and a plain
        callback is not the code that would resume, so none of those
        hand off.  A caller must consume a handed-off event before it
        starts a process, whose ``URGENT`` start would have popped before
        the grant.  A condition built over it fires at construction
        instead of at the pop, so the caller must yield that condition
        before it schedules anything else.
        """
        heap = self._heap
        pop = heappop
        tpool = self._timeout_pool
        epool = self._event_pool
        pool_max = self._POOL_MAX
        getref = _getrefcount
        local_refs = _LOCAL_REFS if getref is not None else None
        mark = _PROCESSED_MARK
        unset = _UNSET
        timeout_cls = Timeout
        event_cls = Event
        method_cls = MethodType
        resume = Process._resume
        inline = budget is None
        check_stop = stop_event is not None or stop_at != _INF
        limit = -1 if budget is None else budget
        peak = self.heap_peak
        handoffs = self.handoffs
        n = 0
        try:
            while heap:
                hlen = len(heap)
                if hlen > peak:
                    peak = hlen
                if check_stop:
                    if stop_event is not None and stop_event.callbacks is mark:
                        return
                    if heap[0][0] > stop_at:
                        return
                when, _prio, seq, event = pop(heap)
                if event._gen != seq:
                    # Stale entry (cancelled, or superseded after reuse):
                    # drop it without running callbacks, advancing the
                    # clock, or counting it as processed.
                    self._tombstones -= 1
                    continue
                self._now = when
                cls = event.__class__

                cbs = event.callbacks
                event.callbacks = mark
                if cbs is not None:
                    if cbs.__class__ is list:
                        for callback in cbs:
                            callback(event)
                    elif (
                        inline
                        and cbs.__class__ is method_cls
                        and cbs.__func__ is resume
                        and event is not stop_event
                    ):
                        self._inline = True
                        cbs(event)
                        self._inline = False
                    else:
                        cbs(event)

                n += 1
                if event._ok is False and not event.defused:
                    # A failure nobody handled: crash loudly with the
                    # original error.
                    raise event._value
                if n == limit:
                    return

                # Free lists: recycle iff the kernel holds the only
                # reference (this frame's `event` local + the getrefcount
                # argument == the measured baseline).  Any user reference —
                # a held timer, a condition child, a callback that stashed
                # the event — bumps the count and skips pooling.  Exact class
                # matches only: subclasses (Process, Request, ...) carry
                # extra state and identity.
                if cls is timeout_cls:
                    if (
                        local_refs is not None
                        and len(tpool) < pool_max
                        and getref(event) == local_refs
                    ):
                        event.callbacks = None
                        event._value = None
                        event.defused = False
                        tpool.append(event)
                elif (
                    cls is event_cls
                    and local_refs is not None
                    and len(epool) < pool_max
                    and getref(event) == local_refs
                ):
                    # Full reset to PENDING so Simulator.event() can hand
                    # it out as new.
                    event.callbacks = None
                    event._value = unset
                    event._ok = None
                    event.defused = False
                    epool.append(event)
        finally:
            self._inline = False
            n += self.handoffs - handoffs
            self.events_processed += n
            _GLOBAL_EVENTS[0] += n
            if peak > self.heap_peak:
                self.heap_peak = peak

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            * ``None`` — run until the heap is empty.
            * a number — run until the clock reaches that time (the clock is
              set to exactly ``until`` on return, even if no event lands
              there).
            * an :class:`Event` — run until that event is processed and
              return its value (raising its exception if it failed).
        """
        if until is None:
            stop_at = _INF
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_at = _INF
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    f"cannot run until {stop_at} < current time {self._now}"
                )

        self._run_loop(stop_at, stop_event)

        if stop_event is not None:
            if not stop_event.processed:
                raise StopSimulation(
                    "event heap ran dry before the awaited event fired"
                )
            stop_event.defused = True
            if stop_event.ok:
                return stop_event.value
            raise stop_event.value

        if stop_at != _INF:
            self._now = max(self._now, stop_at)
        return None

    def run_all(self, max_events: int = 50_000_000) -> int:
        """Run until empty with a safety valve; returns events processed.

        Tombstone discards do not count toward the total or the valve,
        which trips only if a live event is still pending once
        *max_events* have fired.
        """
        before = self.events_processed
        self._run_loop(_INF, None, max_events)
        n = self.events_processed - before
        if n >= max_events and self.peek() != _INF:
            raise StopSimulation(f"exceeded max_events={max_events}")
        return n

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator now={self._now:.9f} pending={len(self._heap)}>"
