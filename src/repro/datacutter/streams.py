"""Physical realization of logical streams.

The runtime keeps "the illusion of a single logical point-to-point
stream" (Section 4.1) over a mesh of socket connections between every
producer copy and every consumer copy:

* an :class:`OutputPort` (one per producer copy per stream) holds the
  sockets to all consumer copies and a write scheduler (RR or DD) that
  picks a destination per buffer;
* an :class:`InputPort` (one per consumer copy per stream) merges
  buffers arriving on all inbound connections and counts end-of-work
  markers — the read side sees one stream that simply ends;
* acknowledgments flow back on the same sockets: ``read()`` acks the
  buffer to its producer just before handing it to the filter ("an
  acknowledgment message ... to indicate that the buffer is being
  processed").
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.datacutter.buffers import (
    ACK_BYTES,
    BUFFER_HEADER_BYTES,
    DataBuffer,
    EOW,
    EOW_BYTES,
)
from repro.datacutter.scheduling import WriteScheduler
from repro.errors import DataCutterError, StreamClosedError
from repro.sim import Event, Simulator, Store
from repro.sockets.api import BaseSocket

__all__ = ["OutputPort", "InputPort"]


class OutputPort:
    """Producer-copy end of a logical stream."""

    def __init__(
        self,
        sim: Simulator,
        stream_name: str,
        scheduler: WriteScheduler,
    ) -> None:
        self.sim = sim
        self.stream_name = stream_name
        self.scheduler = scheduler
        #: Socket per consumer copy, indexed by copy number; filled by
        #: the runtime during connection setup.
        self.connections: List[Optional[BaseSocket]] = [None] * scheduler.n_consumers
        self.buffers_written = 0
        self.bytes_written = 0
        #: Retraction guard (replicated dispatch, docs/TAILS.md): when
        #: set, ``fn(uow_id) -> bool`` is consulted before every
        #: transmit and a True verdict suppresses the buffer — a
        #: retracted unit never emits downstream, whichever copy tries.
        self.retraction: Optional[Callable[[int], bool]] = None
        #: Buffers suppressed by the retraction guard.
        self.buffers_retracted = 0
        self._closed = False

    def attach(self, consumer_index: int, sock: BaseSocket) -> None:
        self.connections[consumer_index] = sock
        # Acknowledgments arrive as control datagrams on the reverse
        # path of the same connection.
        sock.on_control(
            "ack", lambda kind, payload, size: self.scheduler.on_ack(consumer_index)
        )

    def write(self, buffer: DataBuffer) -> Generator[Event, Any, Optional[int]]:
        """Schedule and transmit one buffer; returns the consumer index
        (or ``None`` when the retraction guard suppressed it)."""
        if self._closed:
            raise StreamClosedError(f"write on closed stream {self.stream_name!r}")
        if self.retraction is not None and self.retraction(buffer.uow_id):
            self.buffers_retracted += 1
            return None
        idx = yield from self.scheduler.acquire()
        yield from self._transmit(idx, buffer)
        return idx

    def write_to(self, idx: int, buffer: DataBuffer) -> Generator[Event, Any, bool]:
        """Transmit one buffer to consumer copy *idx*, whose slot the
        caller already reserved (``scheduler.acquire_k`` — replicated
        dispatch).  A buffer the retraction guard suppresses releases
        the reservation instead of transmitting; returns whether the
        buffer actually went out."""
        if self._closed:
            raise StreamClosedError(f"write on closed stream {self.stream_name!r}")
        if self.retraction is not None and self.retraction(buffer.uow_id):
            self.scheduler.cancel_reservation(idx)
            self.buffers_retracted += 1
            return False
        yield from self._transmit(idx, buffer)
        return True

    def _transmit(self, idx: int, buffer: DataBuffer) -> Generator[Event, Any, None]:
        sock = self.connections[idx]
        if sock is None:
            raise DataCutterError(
                f"stream {self.stream_name!r} used before its connection "
                f"to consumer copy {idx} was set up"
            )
        yield from sock.send_message(
            buffer.size + BUFFER_HEADER_BYTES, payload=buffer, kind="data"
        )
        self.buffers_written += 1
        self.bytes_written += buffer.size

    def send_eow(self, uow_id: int) -> Generator[Event, Any, None]:
        """Broadcast the end-of-work marker to every consumer copy."""
        for idx, sock in enumerate(self.connections):
            if sock is None:
                raise DataCutterError(
                    f"end-of-work on stream {self.stream_name!r} before its "
                    f"connection to consumer copy {idx} was set up"
                )
            yield from sock.send_message(
                EOW_BYTES, payload=EOW(uow_id), kind="eow"
            )

    def close(self) -> None:
        self._closed = True
        for sock in self.connections:
            if sock is not None:
                sock.close()


class InputPort:
    """Consumer-copy end of a logical stream (merged view)."""

    def __init__(self, sim: Simulator, stream_name: str, n_producers: int) -> None:
        self.sim = sim
        self.stream_name = stream_name
        self.n_producers = n_producers
        self._merged: Store = Store(sim, name=f"{stream_name}.merge")
        self._eow_seen = 0
        self.buffers_read = 0
        self.bytes_read = 0

    def attach(self, producer_index: int, sock: BaseSocket) -> None:
        self.sim.process(
            self._reader(producer_index, sock),
            name=f"{self.stream_name}.rd[{producer_index}]",
        )

    def _reader(self, idx: int, sock: BaseSocket):
        from repro.errors import SocketClosedError

        while True:
            try:
                msg = yield from sock.recv_message()
            except SocketClosedError:
                return
            if msg.kind == "data":
                self._merged.put_nowait(("data", msg.payload, sock))
            elif msg.kind == "eow":
                self._merged.put_nowait(("eow", msg.payload, sock))
            # acks never arrive here (they flow producer-ward)

    def read(self) -> Generator[Event, Any, Optional[DataBuffer]]:
        """Next buffer, or ``None`` once every producer copy sent EOW.

        Acknowledges the returned buffer to its producer first — the
        ack is the "consumer started processing" signal the
        demand-driven scheduler feeds on.
        """
        while True:
            # Once per buffer: a get the sim hands back already processed
            # (see repro.sim.resources) is not yielded.  The name is
            # rebound to the item before the next suspension, so the
            # kernel can still recycle the event once it has fired.
            item = self._merged.get()
            item = item.value if item.processed else (yield item)
            kind, payload, sock = item
            if kind == "eow":
                self._eow_seen += 1
                if self._eow_seen == self.n_producers:
                    self._eow_seen = 0  # re-arm for the next UOW
                    return None
                continue
            buf: DataBuffer = payload
            yield from sock.send_control(ACK_BYTES, kind="ack")
            self.buffers_read += 1
            self.bytes_read += buf.size
            return buf

    @property
    def backlog(self) -> int:
        """Buffers (and markers) received but not yet read."""
        return self._merged.size
