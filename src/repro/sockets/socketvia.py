"""SocketVIA: the user-level sockets layer over VIA.

This is the paper's artifact — a sockets-compatible library written on
the VIA provider, so TCP applications run unchanged on the high
performance substrate.  The construction follows the real design
(Balaji et al. [4], SOVIA, Shah et al.):

* at connect time each side registers a pool of fixed-size buffers
  (``model.mtu`` bytes, default 8 KB) and pre-posts one receive
  descriptor per buffer;
* **credit-based flow control**: the sender holds one credit per
  remote posted buffer and spends one per fragment; arriving data can
  therefore never find the receive queue empty (the VIA error the
  provider would otherwise raise);
* application messages are fragmented into buffer-size chunks with a
  small framing header (message id, offset, last-fragment flag)
  carried as VIA immediate data;
* credits return to the sender as the receiving layer drains each
  fragment out of its registered buffer (modeling an application
  actively in ``recv()``); the sender can never have more than
  ``credits`` fragments in flight, bounding transit buffering at
  ``credits * mtu`` bytes.  Pacing a slow *application* is left to the
  layer above (DataCutter's acknowledgment-based demand-driven
  scheduling), mirroring how the paper's experiments are built;
* credit-update notifications are tiny control frames on the reverse
  path (the real library piggybacks them on data when it can; the
  explicit frame is the worst case and costs wire time accordingly);
* send completions are reaped on demand: whenever the sender needs a
  buffer (or posts an RDMA part) it drains the VI's send completion
  queue, the way VIPL sockets libraries poll ``VipSendDone``.  A
  fragment's credit returns only after its descriptor has completed,
  so a sender holding a credit always finds a free buffer after the
  drain; :meth:`SocketViaSocket._send_buffer` checks that.

The per-host port registry, rx daemon and lean control-datagram path
come from :class:`~repro.transport.base.StackBase`; connection setup
and the data plane are delegated to the :class:`~repro.via.nic.ViaNic`
(VIA dialogs replace the shared SYN handshake, data rides VIA frames
instead of demuxed transmissions), which is why this stack passes
``consume_port=False`` and registers VIA frame handlers instead.

All host/NIC/wire timing comes from the NIC's cost model (default the
calibrated ``SOCKETVIA_CLAN``); the layer itself adds no hidden costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.cluster.host import Host
from repro.cluster.link import Switch
from repro.errors import ProtocolError
from repro.net.calibration import SOCKETVIA_CLAN
from repro.net.message import Message
from repro.net.model import ProtocolCostModel
from repro.sim import Container, Event, Resource, Store
from repro.sim.events import _PROCESSED_MARK
from repro.sockets.api import Address, BaseSocket, ListenerSocket
from repro.transport.base import ControlDatagram, StackBase
from repro.via.descriptors import Descriptor
from repro.via.nic import ViaNic
from repro.via.vi import VirtualInterface

__all__ = ["SocketViaStack", "SocketViaSocket", "CREDIT_FRAME_BYTES"]

#: Wire size charged for an explicit credit-update frame.
CREDIT_FRAME_BYTES = 16

#: Default number of credits (pre-posted 8 KB buffers) per direction.
DEFAULT_CREDITS = 32


@dataclass(slots=True)
class _FragmentHeader:
    """Framing header carried as VIA immediate data with each fragment."""

    msg_id: int
    kind: str
    total_size: int
    offset: int
    size: int
    is_last: bool
    sent_at: float


@dataclass(slots=True)
class _CreditFrame:
    """Reverse-path notification returning *count* credits."""

    dst_vi: int
    count: int


@dataclass
class _RegionAdvert:
    """Control payload advertising a connection's RDMA landing region."""

    handle: Any


@dataclass
class _RdmaHeader:
    """Immediate data delivered with an RDMA-write-with-notify part."""

    msg_id: int
    kind: str
    total_size: int
    offset: int
    size: int
    is_last: bool
    sent_at: float
    payload: Any = None  # carried on the last part


class SocketViaSocket(BaseSocket):
    """A connected SocketVIA endpoint (see :class:`BaseSocket`)."""

    def __init__(self, stack: "SocketViaStack") -> None:
        super().__init__(stack)
        self.vi: Optional[VirtualInterface] = None
        #: Send credits: one per buffer currently posted at the peer.
        self._credits = Container(
            self.sim, capacity=stack.credits, init=stack.credits
        )
        self._send_mutex = Resource(self.sim, 1)
        #: Reusable send descriptors (buffer pool), one per credit.
        self._send_pool: Store = Store(self.sim, capacity=stack.credits)
        # Receive-side reassembly and credit accounting.
        self._rx_got = 0
        self._credits_pending = 0  # consumed buffers not yet advertised
        self._rx_loop_proc = None
        # RDMA transfer mode (paper future work): the peer's landing
        # region, learned via a control advert after connect, and this
        # side's staging region, registered when the advert goes out.
        self._peer_region = None
        self._rdma_send_mem = None
        self._peer_region_ev: Optional[Event] = None
        self._rdma_mutex = Resource(self.sim, 1)

    # -- setup ---------------------------------------------------------------------

    def _bind_vi(self, vi: VirtualInterface) -> None:
        """Attach a connected VI: build pools, post receives, start daemons."""
        stack: SocketViaStack = self.stack
        self.vi = vi
        buf = stack.model.mtu
        for _ in range(stack.credits):
            # Receive pool: pre-posted, one credit each.
            rdesc = Descriptor(memory=stack.nic.memory.register_now(buf))
            vi.post_recv(rdesc)
            # Send pool: recycled through the send completion queue.
            sdesc = Descriptor(memory=stack.nic.memory.register_now(buf))
            self._send_pool.put_nowait(sdesc)
        self._rx_loop_proc = self.sim.process(
            self._rx_loop(), name=f"{stack.host.name}.sv.rx.{vi.vi_id}"
        )
        # The VI id doubles as the endpoint id in the shared registry
        # (control datagrams address the peer's vi_id).
        stack._endpoints[vi.vi_id] = self
        if stack.rdma_threshold is not None:
            # Prepare the landing region + learn-handler; the advert
            # itself goes out in _post_establish once the dialog has a
            # peer (never for refused connections).
            self._peer_region_ev = Event(self.sim)
            self._my_region = stack.nic.memory.register_now(
                stack.rdma_region_bytes
            )
            self.on_control(
                "rdma_region",
                lambda kind, payload, size: self._learn_region(payload),
            )
        if vi.peer_vi is not None:
            # Server-side sockets are bound to an already-connected VI.
            self._post_establish()

    def _post_establish(self) -> None:
        """Hook run once the VI dialog has completed successfully."""
        if self.stack.rdma_threshold is not None:
            self.sim.process(
                self._advertise_region(self._my_region),
                name=f"{self.stack.host.name}.sv.advert.{self.vi.vi_id}",
            )

    def _learn_region(self, advert: "_RegionAdvert") -> None:
        self._peer_region = advert.handle
        if self._peer_region_ev is not None and not self._peer_region_ev.triggered:
            self._peer_region_ev.succeed()

    def _advertise_region(self, region):
        self._rdma_send_mem = self.stack.nic.memory.register_now(
            self.stack.rdma_region_bytes
        )
        yield from self.stack.send_control_datagram(
            self, CREDIT_FRAME_BYTES, "rdma_region", _RegionAdvert(region)
        )

    # -- connect -------------------------------------------------------------------

    def _do_connect(self, address: Address) -> Generator:
        host_name, port = address
        stack: SocketViaStack = self.stack
        vi = stack.nic.make_vi(name=f"sv.{stack.host.name}:{port}")
        # Bind before the dialog completes so receive buffers are posted
        # ahead of any data the peer might send immediately after accept.
        self._bind_vi(vi)
        yield from stack.nic.connect(vi, host_name, port)
        self._post_establish()
        self.local_address = (stack.host.name, stack._ephemeral_port())
        self.peer_address = (host_name, port)

    # -- send ------------------------------------------------------------------------

    def _do_send(self, message: Message) -> Generator:
        stack: SocketViaStack = self.stack
        if (
            stack.rdma_threshold is not None
            and message.size >= stack.rdma_threshold
        ):
            yield from self._do_send_rdma(message)
            return
        buf = stack.model.mtu
        # Hot path (the loop runs once per fragment): an event the sim
        # hands back already processed (see repro.sim.resources) is not
        # yielded, and the header is built positionally.
        mark = _PROCESSED_MARK
        mutex = self._send_mutex.request()
        if mutex.callbacks is not mark:
            yield mutex
        try:
            size = message.size
            remaining = size
            offset = 0
            while True:
                frag = min(remaining, buf)
                is_last = frag == remaining
                credit = self._credits.get(1)
                if credit.callbacks is not mark:
                    yield credit
                got = self._send_buffer()
                desc: Descriptor = (
                    got._value if got.callbacks is mark else (yield got)
                )
                desc.length = frag
                desc.payload = message.payload if is_last else None
                desc.immediate = _FragmentHeader(
                    message.msg_id, message.kind, size, offset, frag,
                    is_last, message.sent_at,
                )
                # Charges user-level send cost on the host CPU, then the
                # NIC engine carries the fragment.
                yield from self.vi.post_send(desc)
                offset += frag
                remaining -= frag
                if is_last:
                    break
        finally:
            self._send_mutex.release(mutex)

    def _do_send_rdma(self, message: Message) -> Generator:
        """RDMA push path (paper future work): the message travels as
        one RDMA Write (with notify) per landing-region-sized part.

        Per part the peer pays only a completion reap — no per-fragment
        descriptor handling, no receive-side copy — and only one credit
        (the notify's posted descriptor) is consumed instead of one per
        8 KB fragment.
        """
        from repro.via.descriptors import Descriptor

        stack: SocketViaStack = self.stack
        mutex = self._rdma_mutex.request()
        yield mutex
        try:
            if self._peer_region is None:
                yield self._peer_region_ev
            part_max = stack.rdma_region_bytes
            remaining = message.size
            offset = 0
            while True:
                part = min(remaining, part_max)
                is_last = part == remaining
                yield self._credits.get(1)
                self._reap_sends()
                desc = Descriptor(
                    memory=self._rdma_send_mem,
                    length=part,
                    payload=message.payload if is_last else None,
                    immediate=_RdmaHeader(
                        msg_id=message.msg_id,
                        kind=message.kind,
                        total_size=message.size,
                        offset=offset,
                        size=part,
                        is_last=is_last,
                        sent_at=message.sent_at,
                        payload=message.payload if is_last else None,
                    ),
                )
                yield from self.vi.post_rdma_write(
                    desc, self._peer_region, notify=True
                )
                offset += part
                remaining -= part
                if is_last:
                    break
        finally:
            self._rdma_mutex.release(mutex)

    def _reap_sends(self) -> None:
        """Recycle every send descriptor the NIC has completed so far.

        RDMA-path descriptors reference the staging region rather than
        the fragment pool; they are one-shot and simply dropped here.
        """
        cq = self.vi.send_cq
        rdma_mem = self._rdma_send_mem
        desc = cq.poll()
        while desc is not None:
            if desc.memory is not rdma_mem:
                desc.reset()
                self._send_pool.put_nowait(desc)
            desc = cq.poll()

    def _send_buffer(self) -> Event:
        """Reap send completions, then take a free send buffer.

        The caller holds a credit.  Each credit in use covers a fragment
        whose descriptor has not completed yet, or has completed and
        waits in the send CQ, so after the reap a held credit always
        finds a buffer; an empty pool here would leave the sender
        waiting forever, and raises :class:`ProtocolError` instead.
        """
        self._reap_sends()
        pool = self._send_pool
        if not pool.size:
            raise ProtocolError(
                f"SocketVIA send buffers exhausted at {self.stack.host.name} "
                f"(VI {self.vi.name}) with a credit held: "
                f"{self._credits.level} credit(s) left, "
                f"{self.vi.send_cq.pending} completion(s) unreaped"
            )
        return pool.get()

    # -- receive ----------------------------------------------------------------------

    def _rx_loop(self):
        """Reap receive completions, reassemble messages, return credits.

        Buffers are drained and reposted as the layer consumes each
        fragment (modeling an application actively in ``recv()``);
        credit-update frames are batched — flushed every quarter window
        or at a message boundary, whichever comes first — so a long
        stream costs one reverse frame per few fragments, not per
        fragment.  End-to-end pacing of a slow *application* is the
        runtime's job (DataCutter's acknowledgment protocol).
        """
        flush_at = max(1, self.stack.credits // 4)
        while True:
            desc: Descriptor = yield from self.vi.reap_recv()
            hdr = desc.immediate
            if not isinstance(hdr, (_FragmentHeader, _RdmaHeader)):  # pragma: no cover
                raise ProtocolError(f"bad SocketVIA fragment header {hdr!r}")
            self._rx_got += hdr.size
            payload = hdr.payload if isinstance(hdr, _RdmaHeader) else desc.payload
            # Recycle the buffer and account the credit.
            desc.reset()
            self.vi.post_recv(desc)
            self._credits_pending += 1
            if self._credits_pending >= flush_at or hdr.is_last:
                self.stack._send_credit_update(self, self._credits_pending)
                self._credits_pending = 0
            if hdr.kind == "fin":
                self._rx_got = 0
                self._deliver_eof()
                continue
            if hdr.is_last:
                if self._rx_got != hdr.total_size:
                    raise ProtocolError(
                        f"SocketVIA reassembly mismatch at "
                        f"{self.stack.host.name} (VI {self.vi.name}), message "
                        f"{hdr.msg_id}: got {self._rx_got}, expected "
                        f"{hdr.total_size}"
                    )
                self._rx_got = 0
                self._deliver(Message(hdr.total_size, payload, hdr.kind,
                                      hdr.sent_at, hdr.msg_id))

    # -- close -----------------------------------------------------------------------

    def _do_close(self) -> None:
        # An orderly close: a zero-byte "fin"-kind message marks EOS.
        # Sending needs a credit; if none are available the close marker
        # is best-effort deferred to the stack's close daemon.
        self.stack._close_async(self)

    def __repr__(self) -> str:  # pragma: no cover
        vid = self.vi.vi_id if self.vi else None
        return f"<SocketViaSocket vi={vid} credits={self._credits.level}>"


class SocketViaStack(StackBase):
    """Per-host SocketVIA library instance bound to one switch fabric.

    A :class:`~repro.transport.base.StackBase` whose wire plumbing is
    owned by its :class:`~repro.via.nic.ViaNic`: data and credit frames
    ride VIA, only control datagrams flow through the shared rx daemon
    (fed by a frame handler rather than the port demux).
    """

    tag = "socketvia"
    socket_cls = SocketViaSocket

    def __init__(
        self,
        host: Host,
        switch: Switch,
        model: ProtocolCostModel = SOCKETVIA_CLAN,
        credits: int = DEFAULT_CREDITS,
        rdma_threshold: int = None,
        rdma_region_bytes: int = 256 * 1024,
    ) -> None:
        """``rdma_threshold``: when set, messages of at least that many
        bytes travel as RDMA Writes with notify (the paper's future-work
        push model) instead of credit-window fragments; smaller messages
        keep the fragment path.  ``rdma_region_bytes`` sizes the
        per-connection landing region (and the largest single write)."""
        if credits < 1:
            raise ValueError("need at least one credit")
        if rdma_threshold is not None and rdma_threshold < 1:
            raise ValueError("rdma_threshold must be positive")
        self.credits = int(credits)
        self.rdma_threshold = rdma_threshold
        self.rdma_region_bytes = int(rdma_region_bytes)
        super().__init__(host, switch, model, consume_port=False)
        self.nic = ViaNic(host, switch, model=model, tag=f"sv.{model.name}")
        #: Data, credit and control frames all ride the NIC's demux tag.
        self.wire_tag = self.nic.tag
        self.nic.register_frame_handler(_CreditFrame, self._on_credit_frame)
        # Control datagrams arrive as VIA frames but take the shared
        # serialized rx path (charge host cost, route by endpoint id).
        self.nic.register_frame_handler(ControlDatagram, self._enqueue_rx)

    # -- wire plumbing (delegated to the VIA NIC) ----------------------------------------

    def _charge_send(self, nbytes: Optional[int]) -> Generator:
        """User-level send cost on the host CPU (no kernel involved)."""
        yield from self.host.cpu.use(self.model.host_send_time(nbytes or 0))

    def _charge_rx(self, pkt: Any) -> Generator:
        """User-level receive cost for a control frame."""
        yield from self.host.cpu.use(self.model.host_recv_time(pkt.size))

    def _control_route(self, sock: SocketViaSocket):
        """Control datagrams address the peer's VI id."""
        vi = sock.vi
        return vi.peer_host, vi.peer_vi

    # -- connection setup (VIA dialog instead of the shared handshake) -------------------

    def listen(self, port: int) -> ListenerSocket:
        """Bind a listener; VIA discriminator = port number."""
        listener = super().listen(port)
        via_listener = self.nic.listen(port)
        self.sim.process(
            self._accept_loop(listener, via_listener),
            name=f"{self.host.name}.sv.accept.{port}",
        )
        return listener

    def _accept_loop(self, listener: ListenerSocket, via_listener):
        while not listener.closed:
            vi = yield from via_listener.wait_connection()
            sock = self.socket()
            sock.connected = True
            sock._bind_vi(vi)
            sock.local_address = listener.address
            sock.peer_address = (vi.peer_host, -1)
            listener._enqueue(sock)

    # -- credit plumbing ----------------------------------------------------------------

    def _send_credit_update(self, sock: SocketViaSocket, count: int) -> None:
        vi = sock.vi
        if vi is None or vi.peer_vi is None:
            return
        if self.tracer.enabled:
            self.tracer.emit(
                "via.credit", vi=vi.vi_id, count=count, dst=vi.peer_host
            )
        self._transmit(
            vi.peer_host, CREDIT_FRAME_BYTES, _CreditFrame(vi.peer_vi, count)
        )

    def _on_credit_frame(self, frame: _CreditFrame) -> None:
        sock = self._endpoints.get(frame.dst_vi)
        if sock is None:
            return
        sock._credits.put_nowait(frame.count)

    # -- close ------------------------------------------------------------------------------

    def _close_async(self, sock: SocketViaSocket) -> None:
        def closer():
            if sock.vi is not None:
                yield sock._credits.get(1)
                desc: Descriptor = yield sock._send_buffer()
                desc.length = 0
                desc.immediate = _FragmentHeader(
                    msg_id=-1, kind="fin", total_size=0, offset=0, size=0,
                    is_last=True, sent_at=self.sim.now,
                )
                yield from sock.vi.post_send(desc)

        self.sim.process(closer(), name=f"{self.host.name}.sv.close")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SocketViaStack host={self.host.name!r}>"
