"""Point-to-point links and the cluster switch.

The testbed's cLAN5300 switch is a full crossbar with **cut-through**
forwarding: any input reaches any output, and contention happens at the
ports.  Each host owns one full-duplex port modeled as two
:class:`LinkDirection` resources:

* the **uplink** (host → switch) serializes everything the host sends —
  fan-*out* contention;
* the **downlink** (switch → host) serializes everything the host
  receives — fan-*in* contention (three pipeline copies converging on
  the visualization node contend here).

A transport hands the uplink a :class:`Transmission`: "occupy the wire
for ``service_time`` seconds, then deliver ``payload``".  Cut-through
means the two directions overlap for the *same* transmission: the
moment the uplink starts transmitting, the switch reserves a slot on
the destination downlink, whose completion is the later of (its own
FIFO occupancy of ``service_time``) and (the data actually finishing
its uplink + propagation journey).  An uncontended transfer therefore
pays the wire time once — matching measured single-hop latencies —
while fan-in and fan-out still serialize on their ports.

Byte-level timing is computed by the transport's cost model, keeping
the link generic across TCP units, VIA DMA bursts and credit messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim import Simulator, Store
from repro.sim.trace import NULL_TRACER, Tracer

__all__ = ["Transmission", "LinkDirection", "Port", "Switch"]


@dataclass(slots=True)
class Transmission:
    """One unit of wire occupancy headed to a destination port.

    One is built per wire frame, so the record is slotted (no ad-hoc
    attributes) and the transports build it positionally.

    Attributes
    ----------
    dst:
        Destination port (host) name.
    service_time:
        Wire occupancy charged on *each* direction it crosses.
    propagation:
        One-way latency added once (on the uplink hop).
    payload / size / tag:
        Opaque content, its byte size, and the stack tag used by the
        receiving host's demultiplexer.
    """

    dst: str
    service_time: float
    propagation: float = 0.0
    payload: Any = None
    size: int = 0
    tag: str = "data"
    #: Optional hook ``fn(transmission)`` run when the transmission is
    #: deposited in the destination inbox.
    on_delivered: Optional[Callable[["Transmission"], None]] = field(
        default=None, repr=False
    )
    #: Earliest absolute completion time on the receiving direction —
    #: set by the switch's cut-through routing; 0 means unconstrained.
    ready_at: float = field(default=0.0, repr=False)


class LinkDirection:
    """One direction of a full-duplex link: serial occupancy + delay.

    ``send()`` queues a transmission; the direction transmits one at a
    time (FIFO), then hands it to ``deliver`` after the transmission's
    propagation delay (applied only when ``apply_propagation``).

    Implementation note: the direction is event-driven rather than a
    process — one kernel event per transmission (plus one when a
    propagation delay applies).  Links carry every byte of every
    experiment, so this is the hottest path in the simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Optional[Callable[[Transmission], None]] = None,
        on_start: Optional[Callable[[Transmission, float], None]] = None,
        name: str = "",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.name = name
        self.tracer = tracer
        #: Per-link fault state installed by a
        #: :class:`~repro.faults.injector.FaultInjector` (None on the
        #: fault-free fast path: delivery pays one attribute check).
        self.faults = None
        self._deliver = deliver
        #: Called the instant a transmission starts occupying the wire
        #: (the switch's cut-through routing hook).
        self._on_start = on_start
        self._queue: deque = deque()
        self._busy = False
        self.busy_time = 0.0
        self.bytes_carried = 0
        self.tx_count = 0

    @property
    def queue_length(self) -> int:
        """Transmissions waiting for the wire (excludes the one in it)."""
        return len(self._queue)

    def send(self, tx: Transmission) -> None:
        """Enqueue a transmission (never blocks the caller)."""
        if self._busy:
            self._queue.append(tx)
        else:
            self._start(tx)

    def _start(self, tx: Transmission) -> None:
        self._busy = True
        now = self.sim._now
        # Occupy for the service time — longer when cut-through data is
        # still trickling in from the other direction (ready_at).  Read
        # ready_at *before* the start hook: the switch's routing hook
        # sets it for the receiving direction, not for this one.
        hold = max(tx.service_time, tx.ready_at - now)
        if self._on_start is not None:
            # Report the *effective* wire start (completion minus service
            # time): when ready_at stretched the hold — e.g. a VIA burst
            # whose data is still being copied by the host — cut-through
            # routing must not promise the destination the data earlier
            # than it actually exits.
            self._on_start(tx, now + hold - tx.service_time)
        ev = self.sim.timeout(hold, tx)
        ev.add_callback(self._on_transmitted)

    def _on_transmitted(self, event) -> None:
        tx: Transmission = event._value
        self.busy_time += tx.service_time
        self.bytes_carried += tx.size
        self.tx_count += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "cluster.link", link=self.name, size=tx.size, dst=tx.dst,
                tag=tx.tag,
            )
        if self._queue:
            self._start(self._queue.popleft())
        else:
            self._busy = False
        if self._deliver is not None:
            faults = self.faults
            if faults is not None:
                faults.deliver(tx)
            else:
                self._deliver(tx)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this direction was busy."""
        return self.busy_time / self.sim.now if self.sim.now > 0 else 0.0


class Port:
    """A host's attachment to a switch: uplink, downlink, inbox.

    A NIC demultiplexer normally claims the port with
    :meth:`set_consumer`, receiving arriving transmissions via a direct
    (zero-cost) callback; without a consumer, arrivals buffer in
    ``inbox`` for pull-style use (tests, custom NIC models).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: Transmissions delivered *to* this port when no consumer is set.
        self.inbox: Store = Store(sim, name=f"{name}.inbox")
        self.uplink: Optional[LinkDirection] = None  # set by Switch
        self.downlink: Optional[LinkDirection] = None  # set by Switch
        self._consumer: Optional[Callable[[Transmission], None]] = None

    def set_consumer(self, consumer: Callable[[Transmission], None]) -> None:
        """Route all future arrivals to *consumer* (one per port)."""
        if self._consumer is not None:
            from repro.errors import NetworkError

            raise NetworkError(f"port {self.name!r} already has a consumer")
        self._consumer = consumer

    def _deposit(self, tx: Transmission) -> None:
        if self._consumer is not None:
            self._consumer(tx)
        else:
            self.inbox.put_nowait(tx)
        if tx.on_delivered is not None:
            tx.on_delivered(tx)


class Switch:
    """Full-crossbar switch connecting named full-duplex ports."""

    def __init__(
        self,
        sim: Simulator,
        propagation: float = 0.0,
        name: str = "switch",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.name = name
        self.tracer = tracer
        #: Extra switching delay added to every transmission's own
        #: propagation (usually 0: cost models carry their own l_wire).
        self.propagation = float(propagation)
        self._ports: dict[str, Port] = {}

    def add_port(self, name: str) -> Port:
        """Create the port for host *name* (idempotent per name)."""
        if name in self._ports:
            return self._ports[name]
        port = Port(self.sim, f"{self.name}.{name}")
        port.uplink = LinkDirection(
            self.sim,
            on_start=self._route,
            name=f"{self.name}.{name}.up",
            tracer=self.tracer,
        )
        port.downlink = LinkDirection(
            self.sim,
            deliver=port._deposit,
            name=f"{self.name}.{name}.down",
            tracer=self.tracer,
        )
        self._ports[name] = port
        return port

    def port(self, name: str) -> Port:
        """Look up an existing port."""
        try:
            return self._ports[name]
        except KeyError:
            from repro.errors import TopologyError

            raise TopologyError(
                f"switch {self.name!r} has no port {name!r} "
                f"(has {sorted(self._ports)})"
            ) from None

    def _route(self, tx: Transmission, start: float) -> None:
        """Cut-through crossbar: reserve the destination downlink the
        moment the uplink starts transmitting.  The downlink cannot
        finish before the data has fully left the uplink and crossed
        the propagation delay."""
        tx.ready_at = start + tx.service_time + tx.propagation + self.propagation
        self.port(tx.dst).downlink.send(tx)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Switch {self.name!r} ports={len(self._ports)}>"
