"""Virtual Interfaces: VIA's connection endpoints.

A VI is a pair of work queues (send, receive) plus completion queues,
connected point-to-point to exactly one remote VI.  The usage protocol
mirrors the VIPL API shape:

* the receiver **pre-posts** receive descriptors over registered
  memory (``post_recv``) — arriving data consumes the descriptor at
  the head of the receive queue, and arriving data with *no* posted
  descriptor is a protocol error (cLAN reliable-delivery semantics:
  the connection breaks).  Higher layers avoid this with credit flow
  control, exactly like the real SocketVIA;
* the sender posts send descriptors (``post_send``), which charges the
  doorbell + any copy cost on the host CPU and hands the transfer to
  the NIC;
* completions are reaped from the send/receive CQs; reaping a receive
  completion charges the host-side completion cost
  (:meth:`reap_recv`).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Generator, Optional, TYPE_CHECKING

from repro.errors import ViaError
from repro.sim import Event
from repro.sim.events import _PROCESSED_MARK
from repro.via.descriptors import (
    CompletionQueue,
    DESC_DONE,
    DESC_ERROR,
    DESC_IDLE,
    DESC_POSTED,
    Descriptor,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.nic import ViaNic

__all__ = ["VirtualInterface", "VI_IDLE", "VI_CONNECTED", "VI_ERROR"]

VI_IDLE = "idle"
VI_CONNECTED = "connected"
VI_ERROR = "error"

_vi_ids = itertools.count(1)


class VirtualInterface:
    """One VIA endpoint on a :class:`~repro.via.nic.ViaNic`."""

    def __init__(self, nic: "ViaNic", name: str = "") -> None:
        self.nic = nic
        self.sim = nic.sim
        self.vi_id = next(_vi_ids)
        self.name = name or f"vi{self.vi_id}"
        self.state = VI_IDLE
        self.peer_host: Optional[str] = None
        self.peer_vi: Optional[int] = None
        #: Pre-posted receive descriptors, consumed in FIFO order.
        self._recv_posted: Deque[Descriptor] = deque()
        self.send_cq = CompletionQueue(nic.sim, name=f"{self.name}.scq")
        self.recv_cq = CompletionQueue(nic.sim, name=f"{self.name}.rcq")
        self.sends_posted = 0
        self.recvs_consumed = 0
        nic._register_vi(self)

    # -- receive side -------------------------------------------------------------

    def post_recv(self, desc: Descriptor) -> None:
        """Pre-post a receive descriptor (non-blocking, no host cost)."""
        if desc.status not in (DESC_IDLE,):
            raise ViaError(f"cannot post descriptor in state {desc.status!r}")
        self.nic.memory.check(desc.memory, desc.memory.size)
        desc.status = DESC_POSTED
        self._recv_posted.append(desc)

    @property
    def recv_posted_count(self) -> int:
        """Receive descriptors currently available to incoming data."""
        return len(self._recv_posted)

    def reap_recv(self) -> Generator[Event, Any, Descriptor]:
        """Wait for the next receive completion, charging the host-side
        completion cost (completion reap + data copy out of the
        registered buffer) per the NIC's cost model.  Zero-copy
        completions (RDMA notify) cost only the reap itself.  A
        completion handed back already processed is not yielded (this
        runs once per fragment)."""
        ev = self.recv_cq.wait()
        desc = ev._value if ev.callbacks is _PROCESSED_MARK else (yield ev)
        billed = 0 if desc.zero_copy else desc.length
        yield from self.nic.host.cpu.use(
            self.nic.model.host_recv_time(billed)
        )
        return desc

    # -- send side -----------------------------------------------------------------

    def post_send(self, desc: Descriptor) -> Generator[Event, Any, None]:
        """Post a send descriptor: charge doorbell + copy cost on the
        host CPU, then hand the transfer to the NIC engine.

        Completion lands on ``send_cq`` when the NIC has pushed the
        data onto the wire (buffer reusable).
        """
        if self.state != VI_CONNECTED:
            raise ViaError(f"post_send on unconnected VI {self.name!r}")
        if desc.status != DESC_IDLE:
            raise ViaError(f"cannot post descriptor in state {desc.status!r}")
        self.nic.memory.check(desc.memory, desc.length)
        desc.status = DESC_POSTED
        self.sends_posted += 1
        if self.nic.tracer.enabled:
            self.nic.tracer.emit(
                "via.doorbell", vi=self.vi_id, size=desc.length, op="send"
            )
        yield from self.nic.host.cpu.use(
            self.nic.model.host_send_time(desc.length)
        )
        self.nic._transmit_data(self, desc)

    # -- RDMA (paper's future-work section: push/pull transfer) -------------------------

    def post_rdma_write(
        self,
        desc: Descriptor,
        remote: "object",
        notify: bool = False,
    ) -> Generator[Event, Any, None]:
        """RDMA Write: push ``desc.length`` bytes into the peer's
        registered region *remote* with **zero receiver host cost**.

        With ``notify=True`` (write-with-immediate) the write also
        consumes one posted receive descriptor at the peer, delivering
        ``desc.immediate`` to its receive CQ — the hook a push-model
        runtime uses to learn data has landed.  Completion of *desc*
        lands on this VI's send CQ when the data has left the wire.
        """
        if self.state != VI_CONNECTED:
            raise ViaError(f"post_rdma_write on unconnected VI {self.name!r}")
        if desc.status != DESC_IDLE:
            raise ViaError(f"cannot post descriptor in state {desc.status!r}")
        self.nic.memory.check(desc.memory, desc.length)
        desc.status = DESC_POSTED
        self.sends_posted += 1
        if self.nic.tracer.enabled:
            self.nic.tracer.emit(
                "via.doorbell", vi=self.vi_id, size=desc.length,
                op="rdma-write",
            )
        yield from self.nic.host.cpu.use(
            self.nic.model.host_send_time(desc.length)
        )
        self.nic._transmit_rdma_write(self, desc, remote, notify)

    def post_rdma_read(
        self,
        desc: Descriptor,
        remote: "object",
        length: int,
    ) -> Generator[Event, Any, None]:
        """RDMA Read: pull *length* bytes from the peer's registered
        region *remote* into ``desc.memory``, with zero peer host cost.

        Completion (with ``desc.payload`` set to the pulled contents)
        lands on this VI's **send** CQ, per VIA semantics.
        """
        if self.state != VI_CONNECTED:
            raise ViaError(f"post_rdma_read on unconnected VI {self.name!r}")
        if desc.status != DESC_IDLE:
            raise ViaError(f"cannot post descriptor in state {desc.status!r}")
        self.nic.memory.check(desc.memory, length)
        desc.status = DESC_POSTED
        desc.length = length
        self.sends_posted += 1
        if self.nic.tracer.enabled:
            self.nic.tracer.emit(
                "via.doorbell", vi=self.vi_id, size=length, op="rdma-read"
            )
        # Only the doorbell costs host time; the transfer is NIC-to-NIC.
        yield from self.nic.host.cpu.use(self.nic.model.o_send_msg)
        self.nic._transmit_rdma_read(self, desc, remote)

    # -- plumbing used by the NIC ------------------------------------------------------

    def _consume_recv(
        self,
        length: int,
        payload: Any,
        immediate: Any,
        zero_copy: bool = False,
    ) -> Descriptor:
        """Match arriving data to the head posted receive descriptor.

        ``zero_copy`` marks completions whose data landed directly in
        registered memory (RDMA write with notify): the completion
        reports the length, but reaping it costs no per-byte host work.
        """
        if not self._recv_posted:
            self.state = VI_ERROR
            raise ViaError(
                f"VI {self.name!r}: data arrived with no posted receive "
                f"descriptor (flow-control violation)"
            )
        desc = self._recv_posted.popleft()
        # Zero-copy notifications only deliver immediate data; the bytes
        # already live in the registered target region, so the posted
        # buffer's size is irrelevant.
        if not zero_copy and length > desc.memory.size:
            desc.status = DESC_ERROR
            desc.error = "buffer too small"
            self.state = VI_ERROR
            raise ViaError(
                f"VI {self.name!r}: {length}-byte message exceeds "
                f"{desc.memory.size}-byte posted buffer"
            )
        desc.status = DESC_DONE
        desc.length = length
        desc.payload = payload
        desc.immediate = immediate
        desc.zero_copy = zero_copy
        self.recvs_consumed += 1
        self.recv_cq._post(desc)
        return desc

    def _complete_send(self, desc: Descriptor) -> None:
        desc.status = DESC_DONE
        self.send_cq._post(desc)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<VI {self.name!r} state={self.state} "
            f"posted={len(self._recv_posted)}>"
        )
