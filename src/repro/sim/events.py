"""Core event types for the discrete-event kernel.

The kernel is a classic event-driven simulator in the style of SimPy: an
:class:`Event` is a one-shot future that can *succeed* with a value or
*fail* with an exception, and carries a list of callbacks invoked when the
simulator processes it.  Simulation processes (see :mod:`repro.sim.process`)
are generators that ``yield`` events to suspend until those events fire.

Event lifecycle::

    PENDING ---succeed()/fail()---> TRIGGERED ---(event loop)---> PROCESSED
                                        |
                                        +--cancel()--> CANCELLED (tombstone)

* ``PENDING``   — created, not yet scheduled; callbacks may be added.
* ``TRIGGERED`` — has a value/exception and sits on the event heap.
* ``PROCESSED`` — callbacks have run; ``value``/``exception`` are readable.
* ``CANCELLED`` — tombstoned on the heap; the kernel discards it without
  running callbacks (lazy cancellation — see :meth:`Event.cancel`).

Failed events that nobody observed (no callbacks, not *defused*) crash the
simulation at the point they are processed — silent failure is the enemy of
a correct model.
"""

from __future__ import annotations

import sys
from heapq import heappush
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import EventLifecycleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Simulator

__all__ = [
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
    "CANCELLED",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
]

#: Sentinel object marking an event whose value has not been set yet.
_UNSET = object()

#: Sentinel stored in ``Event.callbacks`` once the kernel has processed the
#: event.  Distinct from ``None`` (= no waiters yet): the single-waiter
#: fast path stores a bare callable in ``callbacks``, a second waiter
#: promotes it to a list, and the kernel swaps in this marker when the
#: callbacks have run.  Kernel-internal; everything else should use the
#: :attr:`Event.processed` property.
_PROCESSED_MARK = object()

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"
CANCELLED = "cancelled"

# Reference-count probe used by the kernel's Timeout/Event free lists.
# ``sys.getrefcount(x)`` counts the call argument itself, so the baseline is
# measured with the exact shape used at the call sites (one frame-local
# binding passed as the single argument).  On runtimes without refcounts
# (PyPy) the probes stay None and every refcount-gated optimization is
# disabled — pure speed, never semantics.
_getrefcount = getattr(sys, "getrefcount", None)
if _getrefcount is not None:
    def _measure_local_refs() -> int:
        probe = object()
        return _getrefcount(probe)

    #: getrefcount() of an object referenced only by one local variable.
    _LOCAL_REFS: Optional[int] = _measure_local_refs()
else:  # pragma: no cover - exercised only on refcount-free runtimes
    _LOCAL_REFS = None


class Event:
    """A one-shot future tied to a :class:`~repro.sim.core.Simulator`.

    Parameters
    ----------
    sim:
        Owning simulator.  The event can only be scheduled on its heap.

    Notes
    -----
    ``callbacks`` is allocation-light: ``None`` while nobody waits, a bare
    callable for the common single-waiter case, a list only once a second
    waiter subscribes, and a private processed-marker after the kernel has
    run them.  Registering on a processed event is an error (checked by
    :meth:`add_callback`); kernel modules that read the slot directly must
    handle all four shapes.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "defused",
        "_cancelled",
        "_gen",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Any = None
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        #: When True, an exception carried by this event will not crash the
        #: simulation even if no callback consumed it.
        self.defused = False
        #: Tombstone flag: a cancelled event stays on the heap but is
        #: discarded (callbacks never run) when the kernel reaches it.
        self._cancelled = False
        # ``_gen`` is deliberately NOT initialized here (it is written
        # before first read, and a store per construction matters): the
        # generation stamp.  Every schedule writes the heap entry's
        # sequence number here; a popped entry whose stored seq differs
        # from ``event._gen`` is stale (cancelled, or superseded after
        # recycling) and is discarded without running callbacks.

    # -- state inspection ---------------------------------------------------

    @property
    def state(self) -> str:
        """Current lifecycle state
        (``pending``/``triggered``/``processed``/``cancelled``)."""
        if self._cancelled:
            return CANCELLED
        if self.callbacks is _PROCESSED_MARK:
            return PROCESSED
        if self._value is not _UNSET:
            return TRIGGERED
        return PENDING

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has tombstoned this event."""
        return self._cancelled

    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled or processed)."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is _PROCESSED_MARK

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid after triggering."""
        if self._ok is None:
            raise EventLifecycleError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value (or the exception object for failed events)."""
        if self._value is _UNSET:
            raise EventLifecycleError(f"{self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None`` if the event succeeded."""
        if self._ok is None:
            raise EventLifecycleError(f"{self!r} has not been triggered yet")
        return self._value if not self._ok else None

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and put it on the event heap *now*."""
        if self._value is not _UNSET:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined ``sim.schedule(self)``: the delay is the constant 0, so
        # its range and NaN checks cannot fire.  Same (now, NORMAL, seq)
        # entry, one call fewer on the hottest trigger in the library.
        sim = self.sim
        seq = sim._seq
        heappush(sim._heap, (sim._now, 1, seq, self))
        self._gen = seq
        sim._seq = seq + 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed and put it on the event heap *now*."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _UNSET:
            raise EventLifecycleError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim.schedule(self)
        return self

    def cancel(self) -> bool:
        """Tombstone a triggered-but-unprocessed event (lazy cancellation).

        The heap entry stays where it is with its generation stamp
        invalidated (``_gen = -1``); the kernel discards it on pop
        without advancing the clock or running callbacks.  Each call is
        O(1) except when it crosses the compaction threshold — at least
        ``Simulator._COMPACT_MIN`` tombstones on the heap *and*
        tombstones at least three quarters of it — where it triggers one
        O(heap) sweep
        (:meth:`Simulator._compact`).  The sweep's cost is amortized
        over the ≥1024 cancels that funded it, so cancellation is
        amortized O(1) overall and the heap never grows past ~4x the
        live set.

        Returns True if this call tombstoned the event, False if it was
        already cancelled.  Raises :class:`EventLifecycleError` for events
        that are not sitting on the heap (pending or already processed) —
        there is nothing to cancel in either case.
        """
        if self._cancelled:
            return False
        if self.callbacks is _PROCESSED_MARK:
            raise EventLifecycleError(f"cannot cancel {self!r}: already processed")
        if self._value is _UNSET:
            raise EventLifecycleError(f"cannot cancel {self!r}: not scheduled")
        self._cancelled = True
        # Invalidate the generation stamp: the heap entry still carries the
        # old sequence number, so every discard site recognizes it as stale
        # without touching this object again.
        self._gen = -1
        sim = self.sim
        # Inline tombstone accounting (cancel storms are a hot path —
        # retransmit-style timers are armed and killed per message).
        t = sim._tombstones + 1
        sim._tombstones = t
        if t >= sim._COMPACT_MIN and 4 * t >= 3 * len(sim._heap):
            sim._compact()
        return True

    # -- callback management --------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback* to run when this event is processed."""
        cbs = self.callbacks
        if cbs is None:
            # Single-waiter fast path: no list allocated.
            self.callbacks = callback
        elif cbs.__class__ is list:
            cbs.append(callback)
        elif cbs is _PROCESSED_MARK:
            raise EventLifecycleError(f"{self!r} already processed")
        else:
            # Second waiter: promote bare callable to a list.
            self.callbacks = [cbs, callback]

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Unregister a callback; a no-op if it is not registered."""
        cbs = self.callbacks
        if cbs is None or cbs is _PROCESSED_MARK:
            return
        if cbs.__class__ is list:
            try:
                cbs.remove(callback)
            except ValueError:
                pass
        elif cbs == callback:
            # == not `is`: bound methods compare equal across accesses but
            # are distinct objects.
            self.callbacks = None

    # -- operators ------------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self.state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created already *triggered* (its value is known) and scheduled
    ``delay`` time units in the future.

    Instances may be recycled through the owning simulator's free list
    (see :meth:`Simulator.timeout`): after processing, a timeout that is
    provably unreferenced outside the kernel is re-armed for the next
    ``timeout()`` call instead of being reallocated.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timeout delay={self.delay} state={self.state}>"


class Condition(Event):
    """An event composed of child events, fired by an evaluation predicate.

    The condition succeeds when ``evaluate(children, n_done)`` returns True,
    with a value equal to a dict mapping each *triggered* child to its value
    (insertion-ordered by the original children list).  If any child fails,
    the condition fails with the child's exception.
    """

    __slots__ = ("_children", "_evaluate", "_n_done")

    def __init__(
        self,
        sim: "Simulator",
        evaluate: Callable[[List[Event], int], bool],
        children: List[Event],
    ) -> None:
        super().__init__(sim)
        self._children = list(children)
        self._evaluate = evaluate
        self._n_done = 0
        for child in self._children:
            if child.sim is not sim:
                raise ValueError("condition children must share one simulator")
        # Immediately check already-processed children, then subscribe.
        for child in self._children:
            if child.processed:
                self._on_child(child)
            else:
                child.add_callback(self._on_child)
        # Degenerate case: the predicate may hold with zero children
        # (e.g. AllOf([]) is vacuously true).
        if not self.triggered and self._evaluate(self._children, self._n_done):
            self.succeed(self._collect_values())

    def _collect_values(self) -> dict:
        # Only *processed* children count: a Timeout is "triggered" from
        # construction (its value is pre-set) but has not fired yet.
        return {
            child: child._value
            for child in self._children
            if child.processed and child._ok
        }

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child._ok:
            child.defused = True
            self.fail(child._value)
            return
        self._n_done += 1
        if self._evaluate(self._children, self._n_done):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(children: List[Event], n_done: int) -> bool:
        """Predicate: every child has fired."""
        return n_done == len(children)

    @staticmethod
    def any_event(children: List[Event], n_done: int) -> bool:
        """Predicate: at least one child has fired."""
        return n_done > 0 or not children


class AllOf(Condition):
    """Condition that fires when *all* children have fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: List[Event]) -> None:
        super().__init__(sim, Condition.all_events, children)


class AnyOf(Condition):
    """Condition that fires when *any* child has fired."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: List[Event]) -> None:
        super().__init__(sim, Condition.any_event, children)
