"""Shared-resource primitives for simulation processes.

Three families, mirroring what the transport and runtime models need:

* :class:`Resource` — capacity-limited FIFO servers (CPU cores, send
  mutexes).
* :class:`Store` — FIFO channel of Python objects with optional capacity
  (socket buffers, descriptor queues, filter streams).
* :class:`Container` — a counted pool of indistinguishable units
  (flow-control credits).

All blocking operations return events to be ``yield``-ed by a process.

``Resource.request``, ``Store.get`` and ``Container.get`` may return
their event already *processed* (a same-instant hand-off; see
:meth:`repro.sim.core.Simulator._run_loop`).  Yielding it resumes the
process at once; hot callers skip the yield when ``event.processed``
and read ``event.value`` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import _PROCESSED_MARK, _UNSET, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = [
    "Request",
    "Resource",
    "Store",
    "Container",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Yield it to wait for the grant; pass it to :meth:`Resource.release`
    when done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Event's slots are set here directly, with no super() chain: one
        # request is built per CPU charge, send mutex and port claim.
        self.sim = resource.sim
        self.callbacks = None
        self._value = _UNSET
        self._ok = None
        self.defused = False
        self._cancelled = False
        self.resource = resource


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

    # -- public API ---------------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted.

        A free slot claimed from a process the kernel may hand off to
        comes back already processed.
        """
        req = Request(self)
        users = self._users
        if len(users) < self.capacity and not self._queue:
            users.append(req)
            sim = self.sim
            if not (sim._inline and sim._hand_off(req, req)):
                req.succeed(req)
        else:
            self._queue.append(req)
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

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Convenience: acquire, hold for *duration*, release.

        Intended for ``yield from cpu.use(t)`` — the canonical way the
        library charges CPU time to a host.
        """
        req = self.request()
        if req.callbacks is not _PROCESSED_MARK:
            yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)

    # -- internals -------------------------------------------------------------------

    def _grant_next(self) -> None:
        users = self._users
        queue = self._queue
        while queue and len(users) < self.capacity:
            nxt = queue.popleft()
            users.append(nxt)
            nxt.succeed(nxt)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.name!r} {self.count}/{self.capacity}"
            f" busy, {self.queue_length} queued>"
        )


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

    def get(self) -> Event:
        """Take the next item; the event fires with it as value.

        With an item buffered, a process the kernel may hand off to gets
        the event back already processed.
        """
        sim = self.sim
        ev = sim.event()
        items = self._items
        if items:
            # No getter can be waiting while items are buffered: hand the
            # head over directly, refilling from a blocked putter if any.
            item = items.popleft()
            if not (sim._inline and sim._hand_off(ev, item)):
                ev.succeed(item)
            if self._putters:
                self._settle()
        else:
            self._getters.append(ev)
        return ev

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
        """Take *amount* units, blocking until available.

        With the units available, a process the kernel may hand off to
        gets the event back already processed.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        if amount > self.capacity:
            # Could never be satisfied, and would block every getter
            # queued behind it.
            raise ValueError("amount exceeds container capacity")
        sim = self.sim
        ev = sim.event()
        if not self._getters and amount <= self._level:
            self._level -= amount
            if not (sim._inline and sim._hand_off(ev, None)):
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
