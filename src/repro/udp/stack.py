"""Simulated kernel UDP stack.

The paper's target applications were "developed on kernel-based
protocols such as TCP/UDP using the sockets interface"; this module
supplies the UDP half: connectionless, unreliable, unordered datagram
sockets with the same kernel-path cost structure as the TCP stack
(syscall + per-segment + per-byte costs on the serialized kernel
resource, shared with TCP on the same host when both are in use).

:class:`UdpSocket` shares the :class:`~repro.sockets.api.BaseSocket`
surface (``rx_pending``, ``close``, counters, and — via ``connect(2)``
semantics — ``send_message``/``recv_message`` against a default peer)
on top of the classic datagram calls ``sendto``/``recvfrom``; the
per-host registry, demux and rx-daemon machinery comes from
:class:`~repro.transport.base.StackBase`.

Unreliability is explicit and injectable:

* ``loss_rate`` — each datagram is independently dropped with this
  probability (drawn from the host's seeded RNG stream, so runs are
  reproducible);
* ``reorder_window`` — a delivered datagram may be delayed by up to
  this many seconds (uniform), letting later datagrams overtake it.

Datagrams larger than ``MAX_DATAGRAM`` (64 KB, the IPv4 limit) are
rejected at the API, like ``EMSGSIZE``.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.cluster.host import Host
from repro.cluster.link import Switch
from repro.errors import AddressError, NetworkError
from repro.net.calibration import TCP_CLAN_LANE
from repro.net.message import Message
from repro.net.model import ProtocolCostModel
from repro.sim import Resource
from repro.sockets.api import Address, BaseSocket
from repro.transport.base import StackBase

__all__ = ["UdpStack", "UdpSocket", "MAX_DATAGRAM"]

#: Largest datagram accepted (the IPv4 65,507-byte payload cap, rounded).
MAX_DATAGRAM = 64 * 1024


class _Datagram:
    __slots__ = (
        "dst_port", "src_host", "src_port", "size", "payload", "sent_at",
        "kind",
    )

    def __init__(self, dst_port, src_host, src_port, size, payload, sent_at,
                 kind="datagram"):
        self.dst_port = dst_port
        self.src_host = src_host
        self.src_port = src_port
        self.size = size
        self.payload = payload
        self.sent_at = sent_at
        self.kind = kind


class UdpSocket(BaseSocket):
    """A bound (or ephemeral) datagram socket.

    The classic calls are :meth:`sendto` / :meth:`recvfrom`; after
    :meth:`~repro.sockets.api.BaseSocket.connect` (which, like
    ``connect(2)``, only fixes the default destination — nothing goes on
    the wire) the unified ``send_message``/``recv_message`` surface
    works too.
    """

    def __init__(self, stack: "UdpStack") -> None:
        super().__init__(stack)
        self.port: Optional[int] = None
        self.datagrams_sent = 0
        self.datagrams_received = 0

    # -- binding -------------------------------------------------------------------

    def bind(self, port: int) -> "UdpSocket":
        """Claim *port* on this host; returns self for chaining."""
        self.stack._bind_socket(self, port)
        return self

    def _ensure_port(self) -> None:
        if self.port is None:
            self.stack._bind_socket(self, self.stack._ephemeral_port())

    # -- datagram I/O --------------------------------------------------------------

    def sendto(
        self, size: int, addr: Tuple[str, int], payload=None,
        kind: str = "datagram",
    ) -> Generator:
        """Send one datagram to ``(host, port)``.  Fire and forget:
        completion means the kernel accepted it, nothing more."""
        yield from self._sendto(size, addr, payload, kind)
        self.bytes_sent += size

    def _sendto(self, size, addr, payload, kind) -> Generator:
        # Shared by sendto (which also counts bytes) and the BaseSocket
        # _do_send path (where send_message counts them).
        if self.closed:
            raise NetworkError("sendto on closed UDP socket")
        if size > MAX_DATAGRAM:
            raise NetworkError(
                f"datagram of {size} bytes exceeds {MAX_DATAGRAM} (EMSGSIZE)"
            )
        self._ensure_port()
        stack: UdpStack = self.stack
        yield from stack._charge_send(size)
        dst_host, dst_port = addr
        stack._transmit(
            dst_host,
            size,
            _Datagram(dst_port, stack.host.name, self.port, size, payload,
                      self.sim.now, kind),
        )
        self.datagrams_sent += 1

    def recvfrom(self) -> Generator:
        """Next datagram as ``(Message, (src_host, src_port))``."""
        if self.closed:
            raise NetworkError("recvfrom on closed UDP socket")
        self._ensure_port()
        msg = yield from self.recv_message()
        return msg, msg.source

    # -- BaseSocket integration ----------------------------------------------------

    def _do_connect(self, address: Address) -> Generator:
        # connect(2) on a datagram socket: record the default peer, bind
        # an ephemeral port if needed; no packets are exchanged.
        self._ensure_port()
        self.peer_address = address
        return
        yield  # pragma: no cover - makes this a generator

    def _do_send(self, message: Message) -> Generator:
        yield from self._sendto(
            message.size, self.peer_address, message.payload, message.kind
        )

    def _do_close(self) -> None:
        """Connectionless: nothing to signal to a peer."""

    def _deliver(self, message: Message) -> None:
        self.datagrams_received += 1
        super()._deliver(message)

    def close(self) -> None:
        """Release the bound port (if any) and close the socket."""
        if not self.closed and self.port is not None:
            self.stack._unbind((self.stack.host.name, self.port))
        super().close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UdpSocket {self.stack.host.name}:{self.port}>"


class UdpStack(StackBase):
    """Per-host UDP instance bound to one switch fabric."""

    tag = "udp"
    socket_cls = UdpSocket
    EPHEMERAL_BASE = 52000

    def __init__(
        self,
        host: Host,
        switch: Switch,
        model: ProtocolCostModel = TCP_CLAN_LANE,
        loss_rate: float = 0.0,
        reorder_window: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if reorder_window < 0:
            raise ValueError("reorder_window must be >= 0")
        super().__init__(host, switch, model)
        self.loss_rate = loss_rate
        self.reorder_window = reorder_window
        # Share the serialized kernel path with TCP when both exist.
        tcp = host.services.get("protocol_stacks", {}).get(("tcp", switch.name))
        self.kernel: Resource = (
            tcp.kernel if tcp is not None
            else Resource(self.sim, 1, name=f"{host.name}.udp.kernel")
        )
        self._loss_rng = host.rng.stream("udp.loss")
        self.datagrams_dropped = 0

    # -- registry ---------------------------------------------------------------------

    def listen(self, port: int):
        raise NetworkError(
            "udp is connectionless: bind a datagram socket instead of "
            "listening"
        )

    def _bind_socket(self, sock: UdpSocket, port: int) -> None:
        if sock.port is not None:
            raise AddressError("socket is already bound")
        self._bind_port(port, sock)
        sock.port = port
        sock.local_address = (self.host.name, port)

    # -- kernel-path costs ---------------------------------------------------------------

    def _charge_send(self, nbytes: Optional[int]) -> Generator:
        cost = self.model.sender_time(nbytes or 0)
        if self.tracer.enabled:
            self.tracer.emit("udp.kernel", host=self.host.name, op="send",
                             cost=cost)
        yield from self.kernel.use(cost)

    # -- receive path -------------------------------------------------------------------

    def _charge_rx(self, dgram: _Datagram) -> Generator:
        # Kernel receive processing is paid even for doomed packets.
        cost = self.model.receiver_time(dgram.size)
        if self.tracer.enabled:
            self.tracer.emit("udp.kernel", host=self.host.name, op="recv",
                             cost=cost)
        yield from self.kernel.use(cost)

    def _route_data(self, dgram: _Datagram) -> None:
        rng = self._loss_rng
        if self.loss_rate and rng.random() < self.loss_rate:
            self.datagrams_dropped += 1
            return
        sock = self._listeners.get(dgram.dst_port)
        if not isinstance(sock, UdpSocket) or sock.closed:
            # No listener: silently dropped (no ICMP modeled).
            self.datagrams_dropped += 1
            return
        if self.reorder_window > 0:
            delay = float(rng.random() * self.reorder_window)
            ev = self.sim.timeout(delay, dgram)
            ev.add_callback(
                lambda e, s=sock: s._deliver(self._to_message(e.value))
            )
        else:
            sock._deliver(self._to_message(dgram))

    @staticmethod
    def _to_message(dgram: _Datagram) -> Message:
        msg = Message(size=dgram.size, payload=dgram.payload,
                      kind=dgram.kind, sent_at=dgram.sent_at)
        msg.source = (dgram.src_host, dgram.src_port)
        return msg

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<UdpStack host={self.host.name!r} "
            f"ports={sorted(self._listeners)}>"
        )
