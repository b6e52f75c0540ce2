"""Shared-resource primitives for simulation processes.

Three families, mirroring what the transport and runtime models need:

* :class:`Resource` / :class:`PriorityResource` — capacity-limited servers
  (CPU cores, NIC DMA engines, switch ports).
* :class:`Store` — FIFO channel of Python objects with optional capacity
  (socket buffers, descriptor queues, filter streams).
* :class:`Container` — a counted pool of indistinguishable units
  (flow-control credits).

All blocking operations return events to be ``yield``-ed by a process.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import _UNSET, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = [
    "Request",
    "Resource",
    "PriorityResource",
    "Store",
    "Container",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Yield it to wait for the grant; pass it to :meth:`Resource.release`
    when done.  If the waiting process is interrupted, call :meth:`cancel`
    to withdraw from the queue.
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Event's slots are set here directly, with no super() chain: one
        # request is built per CPU charge, send mutex and port claim.
        self.sim = resource.sim
        self.callbacks = None
        self._value = _UNSET
        self._ok = None
        self.defused = False
        self._cancelled = False
        self.resource = resource
        self.priority = priority

    def cancel(self) -> None:
        """Withdraw this request.

        Safe to call in any state: a queued request is removed from the
        queue; a granted request is released; a processed-and-released
        request is ignored.
        """
        self.resource._cancel(self)


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO wait queue.

    Examples
    --------
    ::

        cpu = Resource(sim, capacity=2)

        def job(sim, cpu):
            req = cpu.request()
            yield req
            try:
                yield sim.timeout(0.010)
            finally:
                cpu.release(req)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    # -- introspection ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of granted (busy) slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    # -- queue discipline (overridden by PriorityResource) -----------------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None

    def _remove_from_queue(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
            return True
        except ValueError:
            return False

    # -- public API ---------------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self, priority)
        users = self._users
        if len(users) < self.capacity and not self._queue:
            users.append(req)
            req.succeed(req)
        else:
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by *request* and grant the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError(
                f"release() of a request not holding {self.name or 'resource'}"
            ) from None
        if self._queue:
            self._grant_next()

    def use(self, duration: float, priority: int = 0) -> Generator[Event, Any, None]:
        """Convenience: acquire, hold for *duration*, release.

        Intended for ``yield from cpu.use(t)`` — the canonical way the
        library charges CPU time to a host.
        """
        req = self.request(priority)
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)

    # -- internals -------------------------------------------------------------------

    def _grant_next(self) -> None:
        users = self._users
        while len(users) < self.capacity:
            nxt = self._dequeue()
            if nxt is None:
                return
            users.append(nxt)
            nxt.succeed(nxt)

    def _cancel(self, request: Request) -> None:
        if self._remove_from_queue(request):
            return
        if request in self._users:
            self.release(request)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} {self.count}/{self.capacity}"
            f" busy, {self.queue_length} queued>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by ``priority`` (low first).

    Ties break FIFO via a monotone sequence number.  The wait queue is a
    ``(priority, seq, request)`` heap kept in ``_queue``, so the base
    class's emptiness and length tests serve both classes.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "") -> None:
        super().__init__(sim, capacity, name)
        self._queue: List[Tuple[int, int, Request]] = []
        self._pseq = 0

    def _enqueue(self, request: Request) -> None:
        heapq.heappush(self._queue, (request.priority, self._pseq, request))
        self._pseq += 1

    def _dequeue(self) -> Optional[Request]:
        return heapq.heappop(self._queue)[2] if self._queue else None

    def _remove_from_queue(self, request: Request) -> bool:
        for i, entry in enumerate(self._queue):
            if entry[2] is request:
                # Rebuild rather than tombstone (queues here are short:
                # per-core or per-port).
                del self._queue[i]
                heapq.heapify(self._queue)
                return True
        return False


class Store:
    """A FIFO channel of arbitrary items with optional capacity.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately if there is space); ``get()`` returns an event that fires
    with the next item.  This is the backbone of every queue in the stack:
    socket buffers, VIA descriptor rings, DataCutter streams.

    A producer that would discard ``put``'s acknowledgement calls
    :meth:`put_nowait` instead: the item is accepted at once and no
    acknowledgement event is scheduled.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        name: str = "",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    # -- introspection ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    def peek(self) -> Any:
        """The next item to be delivered, without removing it."""
        if not self._items:
            raise SimulationError(f"peek() on empty store {self.name!r}")
        return self._items[0]

    # -- operations --------------------------------------------------------------------

    def put(self, item: Any) -> Event:
        """Offer *item*; the event fires when the store accepts it."""
        ev = self.sim.event()
        self._putters.append((ev, item))
        self._settle()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Accept *item* at once without scheduling an acknowledgement.

        The item goes straight to the oldest waiting getter, whose wake-up
        is the only event scheduled, or into the buffer.  Raises
        :class:`SimulationError` if the store cannot accept now (full, or
        putters already queued): the callers write to unbounded stores or
        return conserved units, so a refusal is a conservation bug.
        """
        if self._putters or len(self._items) >= self.capacity:
            raise SimulationError(
                f"put_nowait() refused by store {self.name!r}: "
                f"{len(self._items)}/{self.capacity} items, "
                f"{len(self._putters)} putter(s) queued"
            )
        getters = self._getters
        if getters:
            getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: True if accepted immediately.

        Like :meth:`put_nowait` it schedules no acknowledgement; a refusal
        returns False instead of raising.
        """
        if self._putters or len(self._items) >= self.capacity:
            return False
        self.put_nowait(item)
        return True

    def get(self) -> Event:
        """Take the next item; the event fires with it as value."""
        ev = self.sim.event()
        items = self._items
        if items:
            # No getter can be waiting while items are buffered: hand the
            # head over directly, refilling from a blocked putter if any.
            ev.succeed(items.popleft())
            if self._putters:
                self._settle()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``.

        Schedules no event for the taker; a blocked putter that the freed
        slot admits is still woken.
        """
        items = self._items
        if not items:
            return False, None
        item = items.popleft()
        if self._putters:
            self._settle()
        return True, item

    def cancel_get(self, event: Event) -> None:
        """Withdraw a pending get (e.g. after an interrupt)."""
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def cancel_put(self, event: Event) -> None:
        """Withdraw a pending put."""
        for i, (ev, _item) in enumerate(self._putters):
            if ev is event:
                del self._putters[i]
                return

    # -- internals --------------------------------------------------------------------

    def _settle(self) -> None:
        """Move items from putters to the buffer to getters until blocked."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.popleft()
                self._items.append(item)
                ev.succeed()
                progressed = True
            while self._getters and self._items:
                ev = self._getters.popleft()
                ev.succeed(self._items.popleft())
                progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity == float("inf") else str(self.capacity)
        return f"<Store {self.name!r} {len(self._items)}/{cap}>"


class Container:
    """A counted pool of indistinguishable units (e.g. flow-control credits).

    ``get(n)`` blocks until *n* units are available; ``put(n)`` returns
    units (blocking only if a finite capacity would overflow).  Waiters are
    served FIFO, and a large ``get`` at the head of the queue blocks later
    small ones — the conservative discipline credit protocols need.
    ``put_nowait(n)`` returns units without an acknowledgement event.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        init: float = 0,
        name: str = "",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must satisfy 0 <= init <= capacity")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: Deque[Tuple[Event, float]] = deque()
        self._putters: Deque[Tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Units currently available."""
        return self._level

    def get(self, amount: float = 1) -> Event:
        """Take *amount* units, blocking until available."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            # Could never be satisfied, and would block every getter
            # queued behind it.
            raise ValueError("amount exceeds container capacity")
        ev = self.sim.event()
        if not self._getters and amount <= self._level:
            self._level -= amount
            ev.succeed()
            if self._putters:
                self._settle()
        else:
            self._getters.append((ev, amount))
        return ev

    def put(self, amount: float = 1) -> Event:
        """Return *amount* units, blocking if capacity would overflow."""
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            raise ValueError("amount exceeds container capacity")
        ev = self.sim.event()
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def put_nowait(self, amount: float = 1) -> None:
        """Return *amount* units at once without scheduling an acknowledgement.

        Waiting getters that the units satisfy are woken as by :meth:`put`.
        Raises :class:`SimulationError` if the units do not fit now
        (``level + amount > capacity``, or putters already queued): the
        callers return conserved credits or window bytes, so a refusal is
        a conservation bug.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        level = self._level + amount
        if level > self.capacity or self._putters:
            if amount > self.capacity:
                raise ValueError("amount exceeds container capacity")
            raise SimulationError(
                f"put_nowait({amount}) refused by container {self.name!r}: "
                f"level {self._level}/{self.capacity}, "
                f"{len(self._putters)} putter(s) queued"
            )
        self._level = level
        if self._getters:
            self._settle()

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed()
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed()
                    progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Container {self.name!r} level={self._level}/{self.capacity}>"
