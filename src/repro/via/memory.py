"""VIA registered memory.

VIA requires every buffer used in a descriptor to be *registered* —
pinned and translated ahead of time so the NIC can DMA without kernel
involvement.  The simulation enforces the discipline (posting a
descriptor over unregistered memory raises
:class:`~repro.errors.ViaError`) without modeling page tables: a
:class:`MemoryHandle` stands for one registered region.

Registration cost is real on VIA systems, which is why SocketVIA keeps
a pre-registered buffer pool instead of registering per send; the
simulated cost (``register_cost_per_page``) makes that trade-off
visible in experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator

from repro.errors import ViaError
from repro.sim import Event, Simulator
from repro.sim.units import usec

__all__ = ["MemoryHandle", "MemoryRegistry"]

#: Pinning + translation cost per 4 KB page (typical ~10-20 us/page on
#: the paper's era of hardware; we use a conservative value).
REGISTER_COST_PER_PAGE = usec(10.0)
PAGE = 4096


@dataclass(frozen=True)
class MemoryHandle:
    """Opaque handle to one registered region of ``size`` bytes.

    A handle can be shared with a peer (out of band, e.g. during
    connection setup) to authorize RDMA against the region; the target
    NIC validates it against its own registry on every RDMA operation.
    """

    handle_id: int
    size: int
    registry_id: int = field(compare=False, default=0)


class MemoryRegistry:
    """Per-NIC table of registered memory regions."""

    _registry_counter = itertools.count(1)

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.registry_id = next(self._registry_counter)
        self._regions: Dict[int, MemoryHandle] = {}
        self._handle_counter = itertools.count(1)
        self.bytes_registered = 0
        #: Simulated region contents, keyed by handle id — what RDMA
        #: reads and writes actually move (payload objects, not bytes).
        self._contents: Dict[int, object] = {}

    def register(self, size: int) -> Generator[Event, None, MemoryHandle]:
        """Register *size* bytes; costs time proportional to pages.

        Usage: ``handle = yield from registry.register(65536)``.
        """
        if size <= 0:
            raise ViaError(f"cannot register {size} bytes")
        pages = (size + PAGE - 1) // PAGE
        yield self.sim.timeout(pages * REGISTER_COST_PER_PAGE)
        handle = MemoryHandle(
            handle_id=next(self._handle_counter),
            size=size,
            registry_id=self.registry_id,
        )
        self._regions[handle.handle_id] = handle
        self.bytes_registered += size
        return handle

    def register_now(self, size: int) -> MemoryHandle:
        """Zero-time registration, for setup phases outside processes."""
        if size <= 0:
            raise ViaError(f"cannot register {size} bytes")
        handle = MemoryHandle(
            handle_id=next(self._handle_counter),
            size=size,
            registry_id=self.registry_id,
        )
        self._regions[handle.handle_id] = handle
        self.bytes_registered += size
        return handle

    def check(self, handle: MemoryHandle, length: int) -> None:
        """Validate that *length* bytes fit in a live registration here."""
        live = self._regions.get(handle.handle_id)
        if live is None or handle.registry_id != self.registry_id:
            raise ViaError(
                f"descriptor references unregistered memory {handle}"
            )
        if length > handle.size:
            raise ViaError(
                f"descriptor length {length} exceeds registered size "
                f"{handle.size}"
            )

    # -- simulated region contents (the data RDMA moves) -----------------------

    def write_content(self, handle: MemoryHandle, payload: object) -> None:
        """Store *payload* as the region's contents (after validation)."""
        self.check(handle, 0)
        self._contents[handle.handle_id] = payload

    def read_content(self, handle: MemoryHandle) -> object:
        """The region's current contents (``None`` if never written)."""
        self.check(handle, 0)
        return self._contents.get(handle.handle_id)

    @property
    def region_count(self) -> int:
        return len(self._regions)
