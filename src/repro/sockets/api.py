"""The unified simulated sockets interface.

Both transports expose the same blocking, message-oriented socket API so
DataCutter (and user code) is written once and bound to a protocol by a
single string — exactly the property the paper's SocketVIA exists to
provide for real applications.

All blocking calls are *generators* to be driven by a simulation
process::

    def client(sim, proto):
        sock = proto.socket(host_a)
        yield from sock.connect(("node01", 5000))
        yield from sock.send_message(4096, payload="hello")
        reply = yield from sock.recv_message()
        sock.close()

Messages (not bytes) are the unit of exchange: DataCutter moves opaque
data buffers, and the paper's experiments are phrased entirely in terms
of data-chunk messages.  TCP framing (length prefixes over the byte
stream) is considered part of the stack and its cost model.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.errors import ReceiveTimeout, SocketClosedError
from repro.net.message import Message
from repro.sim import Event, Store
from repro.sim.trace import NULL_TRACER

__all__ = ["Address", "BaseSocket", "ListenerSocket"]

#: (host_name, port_number)
Address = Tuple[str, int]


class BaseSocket:
    """Abstract connected-socket surface shared by all transports.

    Concrete stacks implement ``_do_connect``, ``_do_send`` and
    ``_do_close``; received messages appear in ``_rx_messages``.
    """

    def __init__(self, stack: Any) -> None:
        self.stack = stack
        self.sim = stack.sim
        self._tracer = getattr(stack, "tracer", NULL_TRACER)
        self._proto = getattr(stack, "tag", type(stack).__name__)
        self.local_address: Optional[Address] = None
        self.peer_address: Optional[Address] = None
        self.connected = False
        self.closed = False
        #: Fully reassembled inbound messages, FIFO.
        self._rx_messages: Store = Store(self.sim)
        #: kind -> fn(kind, payload, size) for control datagrams.
        self._control_handlers: dict = {}
        #: Bytes from a stream write not yet consumed by recv_bytes.
        self._stream_leftover = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- to be provided by the concrete stack ----------------------------------

    def _do_connect(self, address: Address) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def _do_send(self, message: Message) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def _do_close(self) -> None:
        raise NotImplementedError

    # -- public API --------------------------------------------------------------

    def connect(self, address: Address) -> Generator[Event, Any, None]:
        """Actively open a connection to ``(host, port)``."""
        self._check_open()
        if self.connected:
            raise SocketClosedError("socket is already connected")
        yield from self._do_connect(address)
        self.connected = True

    def send_message(
        self, size: int, payload: Any = None, kind: str = "data"
    ) -> Generator[Event, Any, Message]:
        """Send one *size*-byte message; blocks on transport flow control.

        Returns the :class:`~repro.net.message.Message` actually sent.
        """
        self._check_connected()
        if self._tracer.enabled:
            self._tracer.emit(
                "sockets.send", proto=self._proto, size=size, kind=kind
            )
        msg = Message(size=size, payload=payload, kind=kind, sent_at=self.sim.now)
        yield from self._do_send(msg)
        self.bytes_sent += size
        return msg

    def recv_message(
        self, timeout: Optional[float] = None
    ) -> Generator[Event, Any, Message]:
        """Receive the next message; blocks until one is available.

        With *timeout* (seconds of simulated time) the wait is bounded:
        if no message arrives in time the pending receive is withdrawn
        (no message is consumed or lost) and
        :class:`~repro.errors.ReceiveTimeout` is raised — the socket
        stays usable, like ``SO_RCVTIMEO``.
        """
        self._check_open()
        if timeout is None:
            msg = yield self._rx_messages.get()
        else:
            get_ev = self._rx_messages.get()
            timer = self.sim.timeout(timeout)
            yield self.sim.any_of([get_ev, timer])
            if not get_ev.triggered:
                self._rx_messages.cancel_get(get_ev)
                raise ReceiveTimeout(
                    f"no message within {timeout:g}s on {self._proto} socket"
                )
            if not timer.triggered:
                timer.cancel()
            msg = get_ev.value
        if msg is None:
            # None is the in-band end-of-stream marker posted by close.
            raise SocketClosedError("peer closed the connection")
        self.bytes_received += msg.size
        if self._tracer.enabled:
            self._tracer.emit(
                "sockets.recv", proto=self._proto, size=msg.size,
                kind=msg.kind, latency=self.sim.now - msg.sent_at,
            )
        self._after_recv(msg)
        return msg

    def _after_recv(self, message: Message) -> None:
        """Hook run when the application consumes a message (stacks use
        it to reclaim flow-control resources)."""

    # -- control datagrams --------------------------------------------------------

    def send_control(
        self, size: int, kind: str = "ack", payload: Any = None
    ) -> Generator[Event, Any, None]:
        """Send a small out-of-band control datagram.

        Control datagrams carry the same host and wire costs as a
        *size*-byte message but bypass per-message flow control,
        fragmentation and reassembly — they are single small frames by
        construction (DataCutter acknowledgments).  Delivery is
        unordered relative to data.  Stacks built on
        :class:`~repro.transport.base.StackBase` provide the lean path
        (``send_control_datagram``); transports without one fall back
        to a regular message.
        """
        self._check_connected()
        lean = getattr(self.stack, "send_control_datagram", None)
        if lean is not None:
            yield from lean(self, size, kind, payload)
        else:
            yield from self._do_send(
                Message(size=size, payload=payload, kind=kind,
                        sent_at=self.sim.now)
            )
        self.bytes_sent += size

    def on_control(self, kind: str, fn) -> None:
        """Dispatch arriving *kind* datagrams to ``fn(kind, payload,
        size)`` instead of the receive queue."""
        self._control_handlers[kind] = fn

    def _deliver_control(self, kind: str, payload: Any, size: int) -> None:
        fn = self._control_handlers.get(kind)
        if fn is not None:
            fn(kind, payload, size)
        else:
            self._deliver(Message(size=size, payload=payload, kind=kind))

    @property
    def rx_pending(self) -> int:
        """Messages received and waiting to be read."""
        return self._rx_messages.size

    # -- byte-stream view ----------------------------------------------------------
    #
    # The paper's applications were written against the byte-stream
    # sockets API; these wrappers provide it over the message machinery.
    # Bytes are counted, not stored: ``recv_bytes`` returns how many
    # bytes were consumed, exactly like ``recv(2)``'s return length.

    def send_bytes(self, nbytes: int) -> Generator[Event, Any, None]:
        """``send()``/``write()``: push *nbytes* onto the stream."""
        if nbytes <= 0:
            raise ValueError(f"send_bytes needs a positive count, got {nbytes}")
        yield from self.send_message(nbytes, kind="stream")

    def recv_bytes(self, max_bytes: int) -> Generator[Event, Any, int]:
        """``recv()``: up to *max_bytes* from the stream; blocks until
        at least one byte is available.  Returns the count consumed.

        Reads do not align with writes: one write may satisfy several
        reads and vice versa, exactly like a TCP byte stream.
        """
        if max_bytes <= 0:
            raise ValueError(f"recv_bytes needs a positive count, got {max_bytes}")
        if self._stream_leftover == 0:
            msg = yield from self.recv_message()
            self._stream_leftover = msg.size
        take = min(max_bytes, self._stream_leftover)
        self._stream_leftover -= take
        return take

    def recv_exactly(self, nbytes: int) -> Generator[Event, Any, None]:
        """``recv`` loop until exactly *nbytes* have been consumed."""
        remaining = nbytes
        while remaining > 0:
            got = yield from self.recv_bytes(remaining)
            remaining -= got

    def close(self) -> None:
        """Close the socket; the peer sees end-of-stream after in-flight
        data drains."""
        if self.closed:
            return
        self.closed = True
        if self.connected:
            self._do_close()
        self.connected = False

    # -- plumbing used by stacks ----------------------------------------------------

    def _deliver(self, message: Message) -> None:
        # Messages whose kind has a control handler are consumed by it
        # even when they traveled the regular data path (fallback
        # transports without a lean control plane).
        fn = self._control_handlers.get(message.kind)
        if fn is not None:
            fn(message.kind, message.payload, message.size)
            return
        self._rx_messages.put_nowait(message)

    def _deliver_eof(self) -> None:
        self._rx_messages.put_nowait(None)

    def _check_open(self) -> None:
        if self.closed:
            raise SocketClosedError("operation on closed socket")

    def _check_connected(self) -> None:
        self._check_open()
        if not self.connected:
            raise SocketClosedError("socket is not connected")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.local_address} -> "
            f"{self.peer_address} connected={self.connected}>"
        )


class ListenerSocket:
    """A passive (listening) socket: accepts inbound connections.

    Created by a stack's ``listen(host, port)``; each ``accept()`` yields
    a connected :class:`BaseSocket`.
    """

    def __init__(self, stack: Any, address: Address) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.address = address
        self.closed = False
        self._pending: Store = Store(self.sim)

    def accept(self) -> Generator[Event, Any, BaseSocket]:
        """Block until a connection arrives; return the server-side socket."""
        if self.closed:
            raise SocketClosedError("accept() on closed listener")
        sock = yield self._pending.get()
        return sock

    def close(self) -> None:
        """Stop accepting (existing connections are unaffected)."""
        if not self.closed:
            self.closed = True
            self.stack._unbind(self.address)

    def _enqueue(self, sock: BaseSocket) -> None:
        self._pending.put_nowait(sock)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ListenerSocket {self.address}>"
