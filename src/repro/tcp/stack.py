"""Simulated kernel TCP/IP socket stack.

One :class:`TcpStack` per host models the 2.2-era Linux network path:

* a single serialized **kernel path** (``self.kernel``, a capacity-1
  resource): every send syscall and every receive interrupt contends
  here, so protocol processing from different connections — and the
  send and receive directions — cannot overlap on one host.  This is
  the structural cost of a host-based protocol that the paper's
  experiments expose;
* per-connection **flow control**: a byte window (default 64 KB) bounds
  in-flight-plus-unread data.  Window bytes are reclaimed when the
  receiving *application* consumes a message, so a slow consumer
  backpressures the sender exactly like a zero-window peer.  (ACK
  propagation latency itself is not modeled; windows exist to bound
  buffering, not to add delay.)
* **transfer units**: a message is carried in units of at most
  ``max_unit`` bytes (default 64 KB ~ the socket buffer size).  Each
  unit is charged kernel time per the cost model (per-message fixed +
  per-MSS-segment + per-byte costs) and occupies the wire for its
  segmented service time.

The per-host machinery — port registry, demux registration, rx daemon,
handshake and control-datagram paths — comes from
:class:`~repro.transport.base.StackBase`; this module defines only the
kernel-path costs and the windowed data plane.  Timing comes entirely
from the stack's :class:`~repro.net.model.ProtocolCostModel` (default:
the calibrated ``TCP_CLAN_LANE``), so the same code also models TCP
over Fast Ethernet.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.host import Host
from repro.cluster.link import Switch
from repro.net.calibration import TCP_CLAN_LANE
from repro.net.message import Message
from repro.net.model import ProtocolCostModel
from repro.sim import Container, Resource
from repro.sim.flow import solve_pipeline
from repro.tcp.packets import ControlDatagram, DataUnit
from repro.transport.base import EndpointSocket, StackBase

__all__ = ["TcpStack", "TcpSocket"]


class TcpSocket(EndpointSocket):
    """A connected TCP endpoint (see :class:`BaseSocket` for the API)."""

    def __init__(self, stack: "TcpStack") -> None:
        super().__init__(stack)
        #: Sender-side in-flight window (bytes); granted back when the
        #: remote application consumes data.
        self._window = Container(
            self.sim, capacity=stack.window, init=stack.window,
            name=f"{stack.host.name}.ep{self.ep_id}.wnd",
        )
        self._send_mutex = Resource(self.sim, 1)
        # Reassembly state for the message currently being received.
        self._rx_got = 0
        # Fluid-mode ordering state: collapsed transfers still in
        # flight, and whether a close raced one (its FIN is deferred
        # until delivery so it cannot overtake the data).
        self._fluid_inflight = 0
        self._fin_deferred = False

    # -- send ------------------------------------------------------------------------

    def _do_send(self, message: Message) -> Generator:
        stack: TcpStack = self.stack
        mutex = self._send_mutex.request()
        yield mutex
        try:
            if self._fluid_eligible(message.size):
                yield from self._send_fluid(message)
                return
            remaining = message.size
            offset = 0
            # Batch window claim: a multi-unit message whose bytes all fit
            # in the currently-available window takes them in one get —
            # the per-unit gets would each be satisfied instantly at the
            # same timestamp, so claiming up front is timing-identical
            # while costing one kernel event instead of one per unit.
            # (The receiver still returns window per unit; the per-unit
            # ``wnd`` fields sum to exactly this claim.)
            batched = remaining > stack.max_unit and self._window.level >= remaining
            if batched:
                yield self._window.get(remaining)
            while True:
                unit = min(remaining, stack.max_unit)
                is_last = unit == remaining
                wnd = max(unit, 1)  # zero-byte markers still cost a slot
                if not batched:
                    yield self._window.get(wnd)
                # Kernel send path: syscall + segmentation + copy.
                yield from stack._charge_send(unit)
                if stack.tracer.enabled:
                    stack.tracer.emit(
                        "tcp.segment", size=unit, dst=self.peer_host,
                        msg_id=message.msg_id, last=is_last,
                    )
                stack._transmit(
                    self.peer_host,
                    unit,
                    DataUnit(
                        dst_ep=self.peer_ep,
                        msg_id=message.msg_id,
                        kind=message.kind,
                        total_size=message.size,
                        offset=offset,
                        size=unit,
                        is_last=is_last,
                        wnd=wnd,
                        payload=message.payload if is_last else None,
                        sent_at=message.sent_at,
                    ),
                )
                offset += unit
                remaining -= unit
                if is_last:
                    break
        finally:
            self._send_mutex.release(mutex)

    # -- fluid fast path ---------------------------------------------------------------

    def _fluid_eligible(self, size: int) -> bool:
        """Gate for the fluid bulk phase: only a steady-window transfer
        with quiet edges qualifies — a message that consumes the whole
        window by itself, the full window available (nothing from this
        socket in flight), the sender's kernel path idle, fluid mode in
        effect, and the wire path quiet and fault-free.  Everything
        else falls back to the per-unit packet path, so fidelity is
        never silently lost.

        The window-consuming floor (``size >= window``) is what makes
        the full-window claim in :meth:`_send_fluid` cost-free: a
        window-sized message stalls on window returns in packet mode
        too.  A *sub*-window message sequence, by contrast, pipelines
        inside the window on the packet path — claiming the whole
        window for one such message would serialize its successors
        behind a delivery-plus-ack round trip, a distortion invisible
        on a LAN but a full RTT per message on a high-propagation
        (WAN) fabric."""
        stack: TcpStack = self.stack
        return (
            size >= stack.window
            and stack.window >= 4 * stack.max_unit
            and self._window.level == stack.window
            and stack.kernel.count == 0
            and stack.kernel.queue_length == 0
            and stack._fluid_wire_ok(self.peer_host)
        )

    def _send_fluid(self, message: Message) -> Generator:
        """Collapse a bulk message into one analytic transfer.

        The per-unit send/wire/receive costs are solved through the
        three-stage flow-shop recurrence (:func:`solve_pipeline`) in
        plain arithmetic; the whole message then crosses the fabric as
        **one** transmission carrying its total wire occupancy, with
        the receiver's residual (the C3-C2 tail) charged on delivery
        via ``DataUnit.rx_cost``.  On an otherwise-idle path this
        reproduces the packet-mode message delivery time exactly
        (window refresh is never the bottleneck under the gate's
        window-consuming floor).  The receive work the solve overlapped
        with the wire still occupies the peer's kernel path via
        :meth:`StackBase._fluid_charge_peer`, so concurrent work on the
        receiving host contends realistically; the remaining
        approximation — equal-share wire contention instead of FIFO
        interleaving — is documented in docs/ARCHITECTURE.md
        ("Fluid-flow mode").
        """
        stack: TcpStack = self.stack
        model = stack.model
        # Claim the *entire* window (the gate guarantees it is home, so
        # the get is instantaneous).  A collapsed transfer is invisible
        # to the packet path's wire FIFOs; holding every window byte
        # until delivery keeps any later message on this socket
        # strictly behind this one, preserving in-order delivery.
        claim = stack.window
        yield self._window.get(claim)
        snd = []
        wire = []
        rcv = []
        remaining = message.size
        while remaining:
            unit = min(remaining, stack.max_unit)
            snd.append(model.sender_time(unit))
            wire.append(model.wire_unit_service(unit))
            rcv.append(model.receiver_time(unit))
            remaining -= unit
        c2, c3 = solve_pipeline(snd, wire, rcv)
        t0 = self.sim.now
        # The receive work that overlapped the wire in the solve still
        # occupies the peer's kernel path for contention purposes (the
        # C3-C2 tail rides on the unit as rx_cost; together they charge
        # exactly sum(rcv)).
        stack._fluid_charge_peer(self.peer_host, sum(rcv) - (c3 - c2))
        if stack.tracer.enabled:
            stack.tracer.emit(
                "tcp.segment", size=message.size, dst=self.peer_host,
                msg_id=message.msg_id, last=True, fluid=True,
            )
        self._fluid_inflight += 1
        stack._transmit_fluid(
            self.peer_host,
            message.size,
            DataUnit(
                dst_ep=self.peer_ep,
                msg_id=message.msg_id,
                kind=message.kind,
                total_size=message.size,
                offset=0,
                size=message.size,
                is_last=True,
                wnd=claim,
                payload=message.payload,
                sent_at=message.sent_at,
                rx_cost=c3 - c2,
            ),
            wire_work=sum(wire),
            exit_at=t0 + c2,
            on_delivered=self._on_fluid_delivered,
        )
        # Transmit-then-charge (like post_send_many): the NIC gets the
        # collapsed message immediately, while send() returns when the
        # per-unit loop's last kernel charge would have finished.
        cost = sum(snd)
        if stack.tracer.enabled:
            stack.tracer.emit(
                "tcp.kernel", host=stack.host.name, op="send-fluid",
                cost=cost,
            )
        yield from stack.kernel.use(cost)

    def _on_fluid_delivered(self, tx) -> None:
        """Delivery hook for collapsed transfers: release the ordering
        guard and flush a close that raced the transfer."""
        self._fluid_inflight -= 1
        if self._fluid_inflight == 0 and self._fin_deferred:
            self._fin_deferred = False
            super()._do_close()

    def _do_close(self) -> None:
        if self._fluid_inflight:
            # The packet FIFOs look idle while a collapsed transfer is
            # in flight; a FIN sent now would overtake the data and
            # deliver EOF first.  Hold it until the transfer lands.
            self._fin_deferred = True
            return
        super()._do_close()

    # -- receive plumbing (called from the stack's rx daemon) ---------------------------

    def _on_unit(self, unit: DataUnit) -> None:
        self._rx_got += unit.size
        # Window bytes return as the kernel drains the unit into the
        # receive buffer (modeling an application actively in recv();
        # end-to-end pacing of slow consumers is the runtime's job —
        # DataCutter's acknowledgment protocol in this library).
        self.stack._return_window(self.peer_host, self.peer_ep, unit.wnd)
        if unit.is_last:
            assert self._rx_got == unit.total_size, (
                f"reassembly mismatch: got {self._rx_got}, "
                f"expected {unit.total_size}"
            )
            self._rx_got = 0
            msg = Message(
                size=unit.total_size,
                payload=unit.payload,
                kind=unit.kind,
                sent_at=unit.sent_at,
            )
            msg.msg_id = unit.msg_id
            self._deliver(msg)


class TcpStack(StackBase):
    """Per-host kernel TCP instance bound to one switch fabric."""

    tag = "tcp"
    socket_cls = TcpSocket

    def __init__(
        self,
        host: Host,
        switch: Switch,
        model: ProtocolCostModel = TCP_CLAN_LANE,
        window: int = 256 * 1024,
        max_unit: int = 64 * 1024,
        retry=None,
        connect_timeout: Optional[float] = None,
    ) -> None:
        self.window = int(window)
        self.max_unit = int(max_unit)
        super().__init__(host, switch, model, retry=retry,
                         connect_timeout=connect_timeout)
        #: The serialized kernel network path of this host.
        self.kernel = Resource(self.sim, 1, name=f"{host.name}.tcp.kernel")

    def _fluid_rx_resource(self) -> Resource:
        # Inbound collapsed transfers occupy the serialized kernel path
        # (where the per-segment receive work runs in packet mode), not
        # the application cores.
        return self.kernel

    # -- kernel-path costs --------------------------------------------------------------
    # (These run once per segment; they charge kernel.use directly
    # rather than through a helper to keep generator nesting flat.)

    def _charge_send(self, nbytes: Optional[int]) -> Generator:
        if nbytes is None:  # bare control op (SYN): per-message cost only
            cost, op = self.model.o_send_msg, "send-ctl"
        else:
            cost, op = self.model.sender_time(nbytes), "send"
        if self.tracer.enabled:
            self.tracer.emit("tcp.kernel", host=self.host.name, op=op, cost=cost)
        yield from self.kernel.use(cost)

    def _charge_rx(self, pkt) -> Generator:
        if type(pkt) is DataUnit and pkt.rx_cost is not None:
            # Fluid mode: the flow-shop residual replaces the per-size
            # receive cost (the rest overlapped the wire analytically).
            cost, op = pkt.rx_cost, "recv-fluid"
        elif isinstance(pkt, (DataUnit, ControlDatagram)):
            cost, op = self.model.receiver_time(pkt.size), "recv"
        else:  # SYN / SYN-ACK / FIN: interrupt + per-message cost only
            cost, op = self.model.o_recv_msg, "recv-ctl"
        if self.tracer.enabled:
            self.tracer.emit("tcp.kernel", host=self.host.name, op=op, cost=cost)
        yield from self.kernel.use(cost)

    # -- data plane ---------------------------------------------------------------------

    def _route_data(self, pkt) -> None:
        if not isinstance(pkt, DataUnit):  # pragma: no cover - defensive
            super()._route_data(pkt)
            return
        ep = self._endpoints.get(pkt.dst_ep)
        if ep is not None and not ep.closed:
            ep._on_unit(pkt)
        elif ep is not None:
            # Data for a closed endpoint is discarded (as a reset
            # would), but the window bytes still return so an in-flight
            # sender drains instead of deadlocking.
            self._return_window(ep.peer_host, ep.peer_ep, pkt.wnd)

    def _return_window(
        self, peer_host: Optional[str], peer_ep: Optional[int], amount: int
    ) -> None:
        """Flow-control return hook: grant *amount* window bytes back to
        the sending endpoint (direct access; ACK latency not modeled)."""
        if peer_host is None or peer_ep is None:
            return
        peer = self._peer_endpoint(peer_host, peer_ep)
        if peer is not None:
            peer._window.put_nowait(amount)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TcpStack host={self.host.name!r} eps={len(self._endpoints)}>"
