"""VIA descriptors and completion queues.

A :class:`Descriptor` is the VIA work unit: a control segment (status,
length) plus a data segment referencing registered memory.  Work
queues hold posted descriptors; when the NIC finishes one it lands on a
:class:`CompletionQueue` for the application (or the SocketVIA layer)
to reap.

Completion queues are deliberately thin wrappers over a FIFO store —
the provider charges *no* host time on completion delivery; reapers
charge the model's completion cost themselves (see
:meth:`repro.via.vi.VirtualInterface.reap_recv`), keeping all host-cost
accounting in one layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim import Event, Simulator, Store
from repro.via.memory import MemoryHandle

__all__ = ["Descriptor", "CompletionQueue", "DESC_IDLE", "DESC_POSTED", "DESC_DONE", "DESC_ERROR"]

DESC_IDLE = "idle"
DESC_POSTED = "posted"
DESC_DONE = "done"
DESC_ERROR = "error"

_desc_ids = itertools.count(1)


@dataclass(slots=True)
class Descriptor:
    """One VIA work request (slotted: touched once per frame).

    Attributes
    ----------
    memory:
        Registered region backing the data segment.
    length:
        Bytes to send, or (for receive descriptors) bytes actually
        received once complete.
    payload:
        Simulated content riding along (never serialized).
    status:
        Lifecycle: idle -> posted -> done | error.
    immediate:
        Small out-of-band value delivered with the data (SocketVIA uses
        it for message framing headers).
    """

    memory: MemoryHandle
    length: int = 0
    payload: Any = None
    status: str = DESC_IDLE
    immediate: Any = None
    error: Optional[str] = None
    #: Set on completions whose data bypassed the host (RDMA notify).
    zero_copy: bool = False
    desc_id: int = field(default_factory=lambda: next(_desc_ids))
    completed_at: float = field(default=0.0, compare=False)

    def reset(self) -> None:
        """Make the descriptor reusable (SocketVIA recycles its pool)."""
        self.length = 0
        self.payload = None
        self.status = DESC_IDLE
        self.immediate = None
        self.error = None
        self.zero_copy = False
        self.completed_at = 0.0


class CompletionQueue:
    """FIFO of completed descriptors."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._q: Store = Store(sim, name=name)
        self.completions = 0

    def _post(self, desc: Descriptor) -> None:
        desc.completed_at = self.sim._now
        self.completions += 1
        self._q.put_nowait(desc)

    def wait(self) -> Event:
        """Event firing with the next completed descriptor.

        Like :meth:`Store.get`, it may come back already processed (a
        same-instant hand-off).
        """
        return self._q.get()

    def poll(self) -> Optional[Descriptor]:
        """Non-blocking reap: the oldest completion, or ``None``.

        Schedules no event (``VipSendDone``/``VipRecvDone`` style);
        SocketVIA drains its send CQ this way when it needs a buffer.
        """
        items = self._q._items
        return items.popleft() if items else None

    @property
    def pending(self) -> int:
        """Completions waiting to be reaped."""
        return self._q.size
