"""The shared transport core: :class:`StackBase` and its wire records.

Every transport in the library — kernel TCP, kernel UDP, the SocketVIA
user-level library, and any backend registered at runtime — is one
per-(host, fabric) *stack*.  Before this module existed each stack
hand-rolled the same machinery; :class:`StackBase` now owns it once:

* the **address/port registry**: listeners (or bound datagram sockets)
  keyed by port, endpoints keyed by integer id, ephemeral-port and
  endpoint-id allocation;
* the **rx-daemon skeleton**: one serialized receive process per stack
  draining a queue the NIC demultiplexer (or a frame handler) feeds,
  charging the transport's receive cost per item
  (:meth:`StackBase._charge_rx`) and routing it
  (:meth:`StackBase._route_packet`);
* the **connection-handshake scaffolding**: the active-open /
  passive-open / refused flow over :class:`ConnectRequest` /
  :class:`ConnectReply`, and orderly close over :class:`Shutdown`;
* the **lean control-datagram path**: :meth:`send_control_datagram`
  carries small out-of-band frames (DataCutter acknowledgments) outside
  flow control, charged via the transport's cost hooks;
* **fabric-wide stack registry** for direct peer lookup (TCP's
  zero-latency window return uses it) and trace-point plumbing
  (``self.tracer``).

A concrete stack supplies only its protocol-specific costs and state
machines: override :meth:`_charge_send` / :meth:`_charge_rx` with the
kernel-path or user-level costs, :meth:`_route_data` with the data-plane
state machine, and set ``socket_cls``.  See ``repro.tcp.stack`` for the
kernel shape, ``repro.sockets.socketvia`` for a stack that delegates its
data plane to a NIC object, and ``tests/test_transport_conformance.py``
for a minimal in-test backend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.cluster.host import Host
from repro.cluster.link import Switch, Transmission
from repro.errors import (
    AddressError,
    ConnectionRefused,
    ConnectTimeout,
    NetworkError,
    RetryExhausted,
)
from repro.faults.retry import RetryPolicy
from repro.net.demux import demux_for
from repro.net.model import ProtocolCostModel
from repro.sim import Store
from repro.sim.trace import NULL_TRACER
from repro.sockets.api import Address, BaseSocket, ListenerSocket

__all__ = [
    "CTRL_BYTES",
    "ConnectRequest",
    "ConnectReply",
    "Shutdown",
    "ControlDatagram",
    "StackBase",
    "EndpointSocket",
    "replicated_connect",
]

#: Size charged for connection-management control packets (headers only).
CTRL_BYTES = 40


# ---------------------------------------------------------------------------
# Shared wire records
# ---------------------------------------------------------------------------


@dataclass
class ConnectRequest:
    """Active-open request: a client endpoint asking for ``dst_port``."""

    src_host: str
    src_ep: int
    dst_port: int


@dataclass
class ConnectReply:
    """Passive-open reply; ``accepted`` False models connection refused."""

    dst_ep: int            # the client endpoint being answered
    src_host: str
    src_ep: int            # the server endpoint (valid when accepted)
    accepted: bool
    local_port: int = 0    # the server-side port number


@dataclass
class Shutdown:
    """Orderly close: the peer sees end-of-stream after queued data."""

    dst_ep: int


@dataclass
class ControlDatagram:
    """Small out-of-band datagram (application-level acknowledgments).

    Charged like any message of its size on the host paths and the wire,
    but exempt from flow control, fragmentation and reassembly.
    """

    dst_ep: int
    kind: str
    size: int
    payload: Any = None


# ---------------------------------------------------------------------------
# The socket shape the shared scaffolding manages
# ---------------------------------------------------------------------------


class EndpointSocket(BaseSocket):
    """A :class:`BaseSocket` with the per-endpoint bookkeeping the
    :class:`StackBase` handshake and control scaffolding relies on.

    Each instance gets a stack-local ``ep_id`` and registers itself in
    the stack's endpoint table; ``peer_host``/``peer_ep`` identify the
    remote end once connected.  Transports whose endpoints are managed
    by other machinery (SocketVIA's VIs) subclass :class:`BaseSocket`
    directly and register under their own ids.
    """

    def __init__(self, stack: "StackBase") -> None:
        super().__init__(stack)
        self.ep_id = stack._new_ep_id()
        self.peer_host: Optional[str] = None
        self.peer_ep: Optional[int] = None
        self._handshake = None  # event while connecting
        stack._endpoints[self.ep_id] = self

    def _do_connect(self, address: Address) -> Generator:
        yield from self.stack._connect_endpoint(self, address)

    def _do_close(self) -> None:
        if self.peer_host is not None and self.peer_ep is not None:
            self.stack._transmit(
                self.peer_host, CTRL_BYTES, Shutdown(dst_ep=self.peer_ep)
            )


# ---------------------------------------------------------------------------
# The stack core
# ---------------------------------------------------------------------------


class StackBase:
    """Per-host transport instance bound to one switch fabric.

    Parameters
    ----------
    host, switch, model:
        The owning host, the fabric, and the calibrated cost model every
        wire and host charge is computed from.
    consume_port:
        When True (kernel-path stacks) the stack registers itself with
        the host's NIC demultiplexer under ``self.tag`` and receives raw
        :class:`~repro.cluster.link.Transmission` objects.  Stacks whose
        wire plumbing is owned by another component (SocketVIA's
        :class:`~repro.via.nic.ViaNic`) pass False and feed the receive
        queue themselves via :meth:`_enqueue_rx`.

    Subclass hooks (all optional except ``socket_cls``/``_route_data``):

    ``socket_cls``
        Concrete socket class; :meth:`socket` instantiates it.
    ``_charge_send(nbytes)``
        Generator charging the host-side cost of emitting a frame of
        *nbytes* (``None`` = a bare control operation).  Default: free.
    ``_charge_rx(pkt)``
        Generator charging the host-side receive cost for one arriving
        item, run serialized inside the rx daemon.  Default: free.
    ``_route_data(pkt)``
        Handle a data-plane packet the shared scaffolding does not know.
    ``wire_tag``
        Demux tag stamped on outgoing transmissions (defaults to
        ``tag``).
    """

    #: Protocol name; also the default demux tag.
    tag: str = "transport"
    #: First ephemeral port handed to active opens.
    EPHEMERAL_BASE = 49152
    #: Concrete socket class (subclasses set this).
    socket_cls: Optional[type] = None

    def __init__(
        self,
        host: Host,
        switch: Switch,
        model: ProtocolCostModel,
        consume_port: bool = True,
        retry: Optional[RetryPolicy] = None,
        connect_timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.switch = switch
        self.model = model
        self.tracer = getattr(host, "tracer", NULL_TRACER)
        #: Connect resilience (see repro.faults.retry): a retry policy
        #: bounds each attempt with its ``attempt_timeout`` and
        #: retransmits with backoff; ``connect_timeout`` alone bounds
        #: the single attempt.  Both default off — the paper's fabric
        #: is lossless, so fault-free runs never arm a timer.
        self.retry = retry
        self.connect_timeout = connect_timeout
        #: Crash-blackout state of the owning host (None = fault-free;
        #: see ``repro.faults.injector._HostFaultState``).  Installed
        #: before stacks are built, so reading it once here keeps the
        #: receive path's check to one attribute load.
        self.faults = getattr(host, "fault_state", None)
        self.port = switch.port(host.name)
        #: Port registry: listeners (connection-oriented transports) or
        #: bound datagram sockets (UDP), keyed by port number.
        self._listeners: Dict[int, Any] = {}
        #: Endpoint registry: connected sockets keyed by integer id.
        self._endpoints: Dict[int, BaseSocket] = {}
        #: (client host, client ep) -> accepted server socket.  Makes
        #: the passive open idempotent: a retransmitted ConnectRequest
        #: (the client timed out waiting for a lost reply) re-sends the
        #: original reply instead of accepting a second socket.
        self._accepted: Dict[Any, EndpointSocket] = {}
        self._ep_counter = itertools.count(1)
        self._port_counter = itertools.count(self.EPHEMERAL_BASE)
        #: Serialized receive queue drained by the stack's rx daemon.
        self._rx_q: Store = Store(self.sim, name=f"{host.name}.{self.tag}.rxq")
        # Exact-type dispatch for the shared control records; anything
        # else is a data-plane packet for the subclass.
        self._ctrl_handlers = {
            ConnectRequest: self._handle_connect_request,
            ConnectReply: self._handle_connect_reply,
            Shutdown: self._handle_shutdown,
            ControlDatagram: self._handle_control_datagram,
        }
        if consume_port:
            demux_for(host, self.port, switch.name).register(
                self.tag, self._enqueue_rx
            )
        self.sim.process(self._rx_daemon(), name=f"{host.name}.{self.tag}.rx")
        host.attach_nic(f"{self.tag}.{switch.name}", self)
        # Fabric-wide stack registry for direct peer lookup (flow-control
        # return paths) keyed by (protocol tag, host name).
        switch.__dict__.setdefault("_stack_registry", {})[
            (self.tag, host.name)
        ] = self

    # -- public API --------------------------------------------------------------------

    def socket(self) -> BaseSocket:
        """A fresh unconnected socket on this host."""
        if self.socket_cls is None:  # pragma: no cover - abstract guard
            raise NotImplementedError(f"{type(self).__name__} sets no socket_cls")
        return self.socket_cls(self)

    def listen(self, port: int) -> ListenerSocket:
        """Bind a listener to *port* on this host."""
        listener = ListenerSocket(self, (self.host.name, port))
        self._bind_port(port, listener)
        return listener

    # -- address/port registry ----------------------------------------------------------

    def _bind_port(self, port: int, owner: Any) -> None:
        if port in self._listeners:
            raise AddressError(
                f"{self.host.name}:{port}/{self.tag} already bound"
            )
        self._listeners[port] = owner

    def _unbind(self, address: Address) -> None:
        self._listeners.pop(address[1], None)

    def _new_ep_id(self) -> int:
        return next(self._ep_counter)

    def _ephemeral_port(self) -> int:
        return next(self._port_counter)

    # -- fabric-wide peer lookup --------------------------------------------------------

    def _peer_stack(self, host_name: str) -> Optional["StackBase"]:
        """The same-protocol stack on *host_name*, if one exists."""
        registry = self.switch.__dict__.get("_stack_registry")
        if registry is None:
            return None
        return registry.get((self.tag, host_name))

    def _peer_endpoint(self, host_name: str, ep_id: int) -> Optional[BaseSocket]:
        """Direct (zero-latency) access to a remote endpoint, used by
        flow-control return paths whose propagation is not modeled."""
        stack = self._peer_stack(host_name)
        if stack is None:
            return None
        return stack._endpoints.get(ep_id)

    # -- wire plumbing ------------------------------------------------------------------

    @property
    def wire_tag(self) -> str:
        """Demux tag stamped on outgoing transmissions."""
        return self.tag

    def _transmit(self, dst_host: str, size: int, payload: Any) -> None:
        """Occupy the uplink with one *size*-byte frame carrying *payload*."""
        self.port.uplink.send(
            Transmission(
                dst=dst_host,
                service_time=self.model.wire_unit_service(size),
                propagation=self.model.l_wire,
                payload=payload,
                size=size,
                tag=self.wire_tag,
            )
        )

    def _enqueue_rx(self, item: Any) -> None:
        """Queue one arriving item for the serialized rx daemon.

        Registered as the demux handler for kernel-path stacks (items
        are transmissions); other stacks call it from frame handlers.
        While the host is in a fault-plan crash window the item is
        deferred instead (the NIC queue outlives the blackout) and
        replayed through this same method at restart.
        """
        faults = self.faults
        if faults is not None and faults.down:
            faults.defer(self._enqueue_rx, item)
            return
        self._rx_q.put_nowait(item)

    def _rx_daemon(self):
        """The stack's receive path, strictly serialized per host:
        charge the transport's receive cost for each item, then route
        it.  (The body is kept flat — this runs once per packet.)"""
        while True:
            item = yield self._rx_q.get()
            pkt = item.payload if type(item) is Transmission else item
            yield from self._charge_rx(pkt)
            self._route_packet(pkt)

    def _route_packet(self, pkt: Any) -> None:
        """Dispatch one received packet to the shared state machines;
        unknown (data-plane) packets go to :meth:`_route_data`."""
        handler = self._ctrl_handlers.get(type(pkt))
        if handler is not None:
            handler(pkt)
        else:
            self._route_data(pkt)

    # -- cost hooks ---------------------------------------------------------------------

    def _charge_send(self, nbytes: Optional[int]) -> Generator:
        """Host-side cost of emitting a frame (default: free)."""
        return
        yield  # pragma: no cover - makes this a generator

    def _charge_rx(self, pkt: Any) -> Generator:
        """Host-side receive cost for one arriving item (default: free)."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- data plane (subclass) ----------------------------------------------------------

    def _route_data(self, pkt: Any) -> None:
        raise NetworkError(
            f"{self.host.name}/{self.tag}: unroutable packet {pkt!r}"
        )

    # -- connection handshake -----------------------------------------------------------

    def _connect_endpoint(
        self, sock: EndpointSocket, address: Address
    ) -> Generator:
        """Shared active-open flow: request, block, raise on refusal.

        With a ``retry`` policy (or ``connect_timeout``) configured the
        wait is bounded; a timed-out attempt retransmits the same
        ConnectRequest after the policy's backoff delay.  The server
        side is idempotent (``self._accepted``), so a retransmission
        racing a delayed reply still converges on one connection: both
        replies name the same server endpoint.  On exhaustion the
        caller gets :class:`~repro.errors.RetryExhausted` with the
        attempt count and the backoff schedule actually waited (or
        :class:`~repro.errors.ConnectTimeout` when no retries were
        configured).
        """
        host_name, port = address
        sock.peer_host = host_name
        sock.local_address = (self.host.name, self._ephemeral_port())
        sock.peer_address = (host_name, port)
        policy = self.retry
        timeout = self.connect_timeout
        if timeout is None and policy is not None:
            timeout = policy.attempt_timeout
        max_attempts = policy.max_attempts if policy is not None else 1
        schedule = (policy.delays(f"{self.host.name}->{host_name}:{port}")
                    if policy is not None else [])
        attempts = 0
        while True:
            attempts += 1
            handshake = sock._handshake = self.sim.event()
            yield from self._charge_send(None)
            self._transmit(
                host_name, CTRL_BYTES,
                ConnectRequest(self.host.name, sock.ep_id, port),
            )
            if timeout is None:
                ok = yield handshake
            else:
                timer = self.sim.timeout(timeout)
                yield self.sim.any_of([handshake, timer])
                if not handshake.triggered:
                    # Attempt timed out (request or reply lost).
                    sock._handshake = None
                    if attempts >= max_attempts:
                        if policy is None:
                            raise ConnectTimeout(
                                f"connect to {address} timed out "
                                f"after {timeout:g}s")
                        raise RetryExhausted(
                            f"connect to {address} failed after "
                            f"{attempts} attempt(s)",
                            attempts=attempts, backoff=schedule)
                    delay = schedule[attempts - 1]
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "faults.retry", proto=self.tag,
                            dst=host_name, port=port,
                            attempt=attempts, delay=delay)
                    yield self.sim.timeout(delay)
                    continue
                if not timer.triggered:
                    timer.cancel()
                ok = handshake.value
            sock._handshake = None
            if not ok:
                raise ConnectionRefused(f"no listener at {address}")
            return

    def _handle_connect_request(self, pkt: ConnectRequest) -> None:
        listener = self._listeners.get(pkt.dst_port)
        if (
            not isinstance(listener, ListenerSocket)
            or listener.closed
        ):
            self._transmit(
                pkt.src_host, CTRL_BYTES,
                ConnectReply(dst_ep=pkt.src_ep, src_host=self.host.name,
                             src_ep=0, accepted=False),
            )
            return
        key = (pkt.src_host, pkt.src_ep)
        server = self._accepted.get(key)
        if server is None or server.closed:
            server = self._accept_socket(pkt)
            self._accepted[key] = server
            listener._enqueue(server)
        # Duplicate requests (client retransmissions) skip the accept
        # and just repeat the reply — the re-handshake is idempotent.
        self._transmit(
            pkt.src_host, CTRL_BYTES,
            ConnectReply(dst_ep=pkt.src_ep, src_host=self.host.name,
                         src_ep=server.ep_id, accepted=True,
                         local_port=pkt.dst_port),
        )

    def _accept_socket(self, pkt: ConnectRequest) -> EndpointSocket:
        """Build the server-side endpoint for an accepted open."""
        server = self.socket()
        server.connected = True
        server.peer_host = pkt.src_host
        server.peer_ep = pkt.src_ep
        server.local_address = (self.host.name, pkt.dst_port)
        server.peer_address = (pkt.src_host, -1)
        return server

    def _handle_connect_reply(self, pkt: ConnectReply) -> None:
        ep = self._endpoints.get(pkt.dst_ep)
        if ep is None or getattr(ep, "_handshake", None) is None:
            return
        if pkt.accepted:
            ep.peer_ep = pkt.src_ep
            ep._handshake.succeed(True)
        else:
            ep._handshake.succeed(False)

    def _handle_shutdown(self, pkt: Shutdown) -> None:
        ep = self._endpoints.get(pkt.dst_ep)
        if ep is not None and not ep.closed:
            ep._deliver_eof()

    def _handle_control_datagram(self, pkt: ControlDatagram) -> None:
        ep = self._endpoints.get(pkt.dst_ep)
        if ep is not None and not ep.closed:
            ep._deliver_control(pkt.kind, pkt.payload, pkt.size)

    # -- lean control-datagram path -----------------------------------------------------

    def _control_route(self, sock: BaseSocket):
        """``(dst_host, dst_ep)`` a control datagram from *sock* targets."""
        return sock.peer_host, sock.peer_ep

    def send_control_datagram(
        self, sock: BaseSocket, size: int, kind: str, payload: Any
    ) -> Generator:
        """Send one out-of-band datagram: host send cost + one frame."""
        yield from self._charge_send(size)
        dst_host, dst_ep = self._control_route(sock)
        self._transmit(
            dst_host, size,
            ControlDatagram(dst_ep=dst_ep, kind=kind, size=size,
                            payload=payload),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} host={self.host.name!r} "
            f"eps={len(self._endpoints)}>"
        )


# ---------------------------------------------------------------------------
# SYN-level flow replication (RepFlow's transport-side variant)
# ---------------------------------------------------------------------------


def replicated_connect(
    sim: Any,
    socket_factory: Any,
    address: Address,
    k: int = 2,
) -> Generator:
    """Open *k* connections for one logical request; first ACK wins.

    RepFlow replicates the **flow** rather than the work: every
    handshake races the fabric independently, the first to complete is
    kept, and the losers are torn down as their handshakes settle (a
    connection cannot be abandoned mid-SYN — the reply is on the wire
    — so a losing socket is closed the moment its attempt resolves).
    Failed attempts simply drop out of the race; only when **every**
    attempt fails does the last failure propagate.

    Parameters: *socket_factory* builds one unconnected socket per
    attempt (``lambda: api.socket(host)``); *k* is the fan-out.
    Returns ``(socket, index)`` — the winning connected socket and
    which attempt it was (same-timestep ties resolve by attempt index,
    deterministically).
    """
    if k < 1:
        raise ValueError(f"replicated_connect needs k >= 1, got {k}")
    socks: List[BaseSocket] = [socket_factory() for _ in range(k)]
    results: List[Any] = [None] * k

    def _attempt(slot: int):
        try:
            yield from socks[slot].connect(address)
        except NetworkError as exc:
            results[slot] = exc
            return
        results[slot] = socks[slot]

    procs = [
        sim.process(_attempt(i), name=f"repconnect[{i}]") for i in range(k)
    ]
    remaining = list(range(k))
    winner: Optional[int] = None
    last_error: Optional[NetworkError] = None
    while winner is None:
        yield sim.any_of([procs[i] for i in remaining])
        still = []
        for i in remaining:
            if not procs[i].triggered:
                still.append(i)
                continue
            if winner is None and isinstance(results[i], BaseSocket):
                winner = i
            elif isinstance(results[i], NetworkError):
                last_error = results[i]
        remaining = still
        if winner is None and not remaining:
            assert last_error is not None
            raise last_error

    def _close_loser(slot: int) -> None:
        r = results[slot]
        if isinstance(r, BaseSocket) and not r.closed:
            r.close()

    for i in range(k):
        if i == winner:
            continue
        if procs[i].triggered:
            _close_loser(i)
        else:
            procs[i].add_callback(lambda _e, slot=i: _close_loser(slot))
    return socks[winner], winner
