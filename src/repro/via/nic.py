"""The simulated cLAN VIA NIC.

One :class:`ViaNic` per (host, fabric).  Responsibilities:

* own the host's :class:`~repro.via.memory.MemoryRegistry`;
* carry data frames: a posted send descriptor becomes a wire
  transmission whose occupancy covers DMA, per-descriptor NIC
  processing and the link gap (all per the cost model — NIC work does
  **not** touch the host CPU, the defining property of a user-level
  protocol);
* match arriving frames to the destination VI's pre-posted receive
  descriptors;
* run the connection handshake (VIA dialog: request / accept / reject
  on a *discriminator*, VIA's analogue of a port number).

The cost model is a constructor argument: raw-VIA benchmarks build NICs
with ``VIA_CLAN``; the SocketVIA layer builds its NICs with
``SOCKETVIA_CLAN`` so the whole sockets-layer overhead (headers, copy
into registered buffers, credit bookkeeping bubbles) is calibrated
end-to-end against the paper's Figure 4 (see DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.cluster.host import Host
from repro.cluster.link import Switch, Transmission
from repro.errors import AddressError, ConnectionRefused, ViaError
from repro.net.calibration import VIA_CLAN
from repro.net.demux import demux_for
from repro.net.model import ProtocolCostModel
from repro.sim import Event, Store
from repro.sim.trace import NULL_TRACER
from repro.via.descriptors import Descriptor
from repro.via.memory import MemoryRegistry
from repro.via.vi import VI_CONNECTED, VI_IDLE, VirtualInterface

__all__ = ["ViaNic", "ViaListener"]

#: Wire size charged for connection-handshake frames.
HANDSHAKE_BYTES = 64


@dataclass
class _DataFrame:
    dst_vi: int
    src_vi: int
    length: int
    payload: Any
    immediate: Any


@dataclass
class _RdmaWriteFrame:
    dst_vi: int
    src_vi: int
    length: int
    payload: Any
    remote_handle: Any
    immediate: Any
    notify: bool


@dataclass
class _RdmaReadRequest:
    dst_vi: int        # the VI at the *target* (data owner) side
    src_vi: int        # the initiator's VI
    src_host: str
    length: int
    remote_handle: Any
    req_id: int


@dataclass
class _RdmaReadResponse:
    dst_vi: int        # the initiator's VI
    req_id: int
    length: int
    payload: Any


@dataclass
class _ConnectRequest:
    src_host: str
    src_vi: int
    discriminator: int


@dataclass
class _ConnectReply:
    dst_vi: int
    src_host: str
    src_vi: int
    accepted: bool


class ViaListener:
    """Pending-connection queue for one discriminator."""

    def __init__(self, nic: "ViaNic", discriminator: int) -> None:
        self.nic = nic
        self.discriminator = discriminator
        self._pending: Store = Store(nic.sim)
        self.closed = False

    def wait_connection(self) -> Generator[Event, Any, VirtualInterface]:
        """Block until a peer connects; returns the connected local VI.

        The accept path pre-creates and connects the VI (like
        VipConnectAccept with an idle VI supplied by the caller —
        collapsed for convenience; use :meth:`ViaNic.make_vi` +
        manual plumbing for the long-hand flow).
        """
        vi = yield self._pending.get()
        return vi

    def close(self) -> None:
        self.closed = True
        self.nic._listeners.pop(self.discriminator, None)


class ViaNic:
    """Host-side VIA provider instance bound to one switch fabric."""

    tag_prefix = "via"

    def __init__(
        self,
        host: Host,
        switch: Switch,
        model: ProtocolCostModel = VIA_CLAN,
        tag: Optional[str] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.switch = switch
        self.model = model
        #: Demux tag: distinct per cost model so a raw-VIA NIC and a
        #: SocketVIA NIC can coexist on one host/fabric.
        self.tag = tag or f"{self.tag_prefix}.{model.name}"
        self.tracer = getattr(host, "tracer", NULL_TRACER)
        #: Host crash state from a fault plan (see ``repro.faults``);
        #: None on fault-free runs — the rx path pays one check.
        self.faults = getattr(host, "fault_state", None)
        self.port = switch.port(host.name)
        self.memory = MemoryRegistry(self.sim, name=f"{host.name}.viamem")
        self._vis: Dict[int, VirtualInterface] = {}
        self._listeners: Dict[int, ViaListener] = {}
        #: Extension point: layers above VIA (e.g. SocketVIA credit
        #: frames) register handlers for their own frame types.
        self._frame_handlers: Dict[type, Any] = {}
        #: Outstanding RDMA Read requests: req_id -> (vi, descriptor).
        self._pending_reads: Dict[int, Any] = {}
        demux_for(host, self.port, switch.name).register(self.tag, self._on_tx)
        host.attach_nic(f"{self.tag}.{switch.name}", self)
        # Fabric-wide NIC registry for handshake routing.
        registry = switch.__dict__.setdefault("_via_nics", {})
        registry[(host.name, self.tag)] = self

    # -- VI management -----------------------------------------------------------------

    def make_vi(self, name: str = "") -> VirtualInterface:
        """Create an idle VI on this NIC."""
        return VirtualInterface(self, name=name)

    def register_frame_handler(self, frame_type: type, handler) -> None:
        """Route arriving frames of *frame_type* to *handler* (one each)."""
        if frame_type in self._frame_handlers:
            raise ViaError(f"frame handler for {frame_type} already set")
        self._frame_handlers[frame_type] = handler

    def _register_vi(self, vi: VirtualInterface) -> None:
        self._vis[vi.vi_id] = vi

    # -- connection handshake -------------------------------------------------------------

    def listen(self, discriminator: int) -> ViaListener:
        """Start accepting connections on *discriminator*."""
        if discriminator in self._listeners:
            raise AddressError(
                f"{self.host.name}: VIA discriminator {discriminator} in use"
            )
        listener = ViaListener(self, discriminator)
        self._listeners[discriminator] = listener
        return listener

    def connect(
        self, vi: VirtualInterface, remote_host: str, discriminator: int
    ) -> Generator[Event, Any, None]:
        """Connect a local idle VI to a remote listener (blocking)."""
        if vi.state != VI_IDLE:
            raise ViaError(f"connect on non-idle VI {vi.name!r}")
        vi.peer_host = remote_host
        reply_ev = self.sim.event()
        vi.__dict__["_connect_wait"] = reply_ev
        yield from self.host.cpu.use(self.model.o_send_msg)
        self._transmit_ctrl(
            remote_host,
            _ConnectRequest(self.host.name, vi.vi_id, discriminator),
        )
        reply: _ConnectReply = yield reply_ev
        vi.__dict__.pop("_connect_wait", None)
        if not reply.accepted:
            vi.peer_host = None
            raise ConnectionRefused(
                f"no VIA listener at {remote_host}:{discriminator}"
            )
        vi.peer_vi = reply.src_vi
        vi.state = VI_CONNECTED

    # -- wire plumbing ----------------------------------------------------------------------

    def _transmit_data(self, vi: VirtualInterface, desc: Descriptor) -> None:
        frame = _DataFrame(
            dst_vi=vi.peer_vi,
            src_vi=vi.vi_id,
            length=desc.length,
            payload=desc.payload,
            immediate=desc.immediate,
        )
        self.port.uplink.send(
            Transmission(
                dst=vi.peer_host,
                service_time=self.model.wire_unit_service(desc.length),
                propagation=self.model.l_wire,
                payload=frame,
                size=desc.length,
                tag=self.tag,
                on_delivered=lambda tx, v=vi, d=desc: v._complete_send(d),
            )
        )

    def _transmit_data_many(
        self,
        vi: VirtualInterface,
        descs: "list[Descriptor]",
        host_done: "list[float]",
    ) -> None:
        """Push a burst of send descriptors as one batched link enqueue
        (one :meth:`LinkDirection.send_many` call; see its docstring for
        the timing contract).

        ``host_done[k]`` is the cumulative host-side posting cost
        through descriptor *k*: each transmission's ``ready_at`` is set
        so it cannot finish the wire before its data would have been
        handed over by the sequential ``post_send`` loop — reproducing
        the host/wire two-stage pipeline analytically.
        """
        model = self.model
        now = self.sim.now
        self.port.uplink.send_many(
            Transmission(
                dst=vi.peer_host,
                service_time=model.wire_unit_service(desc.length),
                propagation=model.l_wire,
                payload=_DataFrame(
                    dst_vi=vi.peer_vi,
                    src_vi=vi.vi_id,
                    length=desc.length,
                    payload=desc.payload,
                    immediate=desc.immediate,
                ),
                size=desc.length,
                tag=self.tag,
                on_delivered=lambda tx, v=vi, d=desc: v._complete_send(d),
                ready_at=now + done + model.wire_unit_service(desc.length),
            )
            for desc, done in zip(descs, host_done)
        )

    def _transmit_rdma_write(
        self, vi: VirtualInterface, desc: Descriptor, remote: Any, notify: bool
    ) -> None:
        frame = _RdmaWriteFrame(
            dst_vi=vi.peer_vi,
            src_vi=vi.vi_id,
            length=desc.length,
            payload=desc.payload,
            remote_handle=remote,
            immediate=desc.immediate,
            notify=notify,
        )
        self.port.uplink.send(
            Transmission(
                dst=vi.peer_host,
                service_time=self.model.wire_unit_service(desc.length),
                propagation=self.model.l_wire,
                payload=frame,
                size=desc.length,
                tag=self.tag,
                on_delivered=lambda tx, v=vi, d=desc: v._complete_send(d),
            )
        )

    def _transmit_rdma_read(
        self, vi: VirtualInterface, desc: Descriptor, remote: Any
    ) -> None:
        req = _RdmaReadRequest(
            dst_vi=vi.peer_vi,
            src_vi=vi.vi_id,
            src_host=self.host.name,
            length=desc.length,
            remote_handle=remote,
            req_id=desc.desc_id,
        )
        self._pending_reads[desc.desc_id] = (vi, desc)
        self._transmit_ctrl(vi.peer_host, req)

    def _transmit_ctrl(self, dst_host: str, payload: Any) -> None:
        self.port.uplink.send(
            Transmission(
                dst=dst_host,
                service_time=self.model.wire_unit_service(HANDSHAKE_BYTES),
                propagation=self.model.l_wire,
                payload=payload,
                size=HANDSHAKE_BYTES,
                tag=self.tag,
            )
        )

    def _on_tx(self, tx: Transmission) -> None:
        faults = self.faults
        if faults is not None and faults.down:
            # Crashed host: frames that reach the NIC are deferred and
            # replayed in arrival order at restart (see repro.faults).
            faults.defer(self._on_tx, tx)
            return
        frame = tx.payload
        if isinstance(frame, _DataFrame):
            vi = self._vis.get(frame.dst_vi)
            if vi is None:
                raise ViaError(
                    f"{self.host.name}: frame for unknown VI {frame.dst_vi}"
                )
            vi._consume_recv(frame.length, frame.payload, frame.immediate)
        elif isinstance(frame, _RdmaWriteFrame):
            self._handle_rdma_write(frame)
        elif isinstance(frame, _RdmaReadRequest):
            self._handle_rdma_read_request(frame)
        elif isinstance(frame, _RdmaReadResponse):
            self._handle_rdma_read_response(frame)
        elif isinstance(frame, _ConnectRequest):
            self._handle_connect_request(frame)
        elif isinstance(frame, _ConnectReply):
            vi = self._vis.get(frame.dst_vi)
            if vi is not None:
                waiter = vi.__dict__.get("_connect_wait")
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(frame)
        else:
            handler = self._frame_handlers.get(type(frame))
            if handler is None:
                raise ViaError(f"unknown VIA frame {frame!r}")
            handler(frame)

    # -- RDMA handling (entirely on the NIC: zero host CPU) ----------------------------

    def _handle_rdma_write(self, frame: _RdmaWriteFrame) -> None:
        vi = self._vis.get(frame.dst_vi)
        if vi is None:
            raise ViaError(f"{self.host.name}: RDMA write for unknown VI")
        try:
            self.memory.check(frame.remote_handle, frame.length)
        except ViaError:
            vi.state = "error"
            raise
        self.memory.write_content(frame.remote_handle, frame.payload)
        if frame.notify:
            # Write-with-immediate consumes one posted receive descriptor
            # to deliver the notification (data stays in the region).
            vi._consume_recv(frame.length, None, frame.immediate, zero_copy=True)

    def _handle_rdma_read_request(self, req: _RdmaReadRequest) -> None:
        vi = self._vis.get(req.dst_vi)
        if vi is None:
            raise ViaError(f"{self.host.name}: RDMA read for unknown VI")
        try:
            self.memory.check(req.remote_handle, req.length)
        except ViaError:
            vi.state = "error"
            raise
        payload = self.memory.read_content(req.remote_handle)
        # The data response occupies this host's uplink for its full
        # wire time — still no host CPU involvement.
        self.port.uplink.send(
            Transmission(
                dst=req.src_host,
                service_time=self.model.wire_unit_service(req.length),
                propagation=self.model.l_wire,
                payload=_RdmaReadResponse(
                    dst_vi=req.src_vi,
                    req_id=req.req_id,
                    length=req.length,
                    payload=payload,
                ),
                size=req.length,
                tag=self.tag,
            )
        )

    def _handle_rdma_read_response(self, resp: _RdmaReadResponse) -> None:
        entry = self._pending_reads.pop(resp.req_id, None)
        if entry is None:
            raise ViaError(f"{self.host.name}: unmatched RDMA read response")
        vi, desc = entry
        desc.payload = resp.payload
        self.memory.write_content(desc.memory, resp.payload)
        vi._complete_send(desc)

    def _handle_connect_request(self, req: _ConnectRequest) -> None:
        listener = self._listeners.get(req.discriminator)
        if listener is None or listener.closed:
            self._transmit_ctrl(
                req.src_host,
                _ConnectReply(dst_vi=req.src_vi, src_host=self.host.name,
                              src_vi=0, accepted=False),
            )
            return
        vi = self.make_vi(name=f"acc.{req.src_host}.{req.src_vi}")
        vi.state = VI_CONNECTED
        vi.peer_host = req.src_host
        vi.peer_vi = req.src_vi
        listener._pending.put_nowait(vi)
        self._transmit_ctrl(
            req.src_host,
            _ConnectReply(dst_vi=req.src_vi, src_host=self.host.name,
                          src_vi=vi.vi_id, accepted=True),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ViaNic host={self.host.name!r} tag={self.tag!r} vis={len(self._vis)}>"
