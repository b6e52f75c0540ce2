"""The block-cache service hosted on a cluster host.

A :class:`BlockCache` holds block *identities* (the simulation never
materializes block contents — payload tokens are a pure function of
the block id, see :func:`repro.transport.striped.block_token`), with
exact hit/miss/insert accounting.  It is unbounded: every scenario
varies placement and temperature, not eviction pressure, so a block
once admitted stays.  The cache itself is pure bookkeeping: it charges
no simulated time.  Where a hit is *served from* — and therefore what a
hit costs — is the scenario's contract (docs/CACHING.md): the
wancache application serves client-placement hits locally, edge hits
over one LAN round trip, and storage hits over the WAN minus the
storage read penalty.

Every transition emits a ``cache.*`` trace point (hit / miss / insert
/ warm), registered as its own layer in
:data:`repro.sim.trace.TRACE_LAYERS`, so ``python -m repro trace`` and
the bench runner aggregate cache behavior next to the transport
layers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.cluster.host import Host
from repro.sim.trace import NULL_TRACER, Tracer

__all__ = ["BlockCache"]


class BlockCache:
    """Block-granular cache on one host with deterministic accounting.

    All operations are O(1) plain method calls — no simulated time —
    so the cache composes with any process without perturbing event
    order.
    """

    def __init__(self, host: Host, tracer: Tracer = NULL_TRACER) -> None:
        self.host = host
        self.tracer = tracer
        self._resident: Dict[object, None] = {}
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.warmed = 0

    # -- queries -----------------------------------------------------------------

    def __contains__(self, block_id) -> bool:
        return block_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def get(self, block_id) -> bool:
        """Look one block up, counting a hit or a miss."""
        if block_id in self._resident:
            self.hits += 1
            if self.tracer.enabled:
                self.tracer.emit("cache.hit", host=self.host.name,
                                 block=block_id)
            return True
        self.misses += 1
        if self.tracer.enabled:
            self.tracer.emit("cache.miss", host=self.host.name,
                             block=block_id)
        return False

    # -- updates -----------------------------------------------------------------

    def put(self, block_id) -> None:
        """Insert one block.

        Re-inserting a resident block counts as neither insertion nor
        hit.
        """
        if block_id in self._resident:
            return
        self._resident[block_id] = None
        self.insertions += 1
        if self.tracer.enabled:
            self.tracer.emit("cache.insert", host=self.host.name,
                             block=block_id)

    def warm(self, block_ids: Iterable) -> int:
        """Pre-populate without touching the hit/miss counters.

        Sets the cache's *temperature* before a measurement: the number
        of blocks newly admitted is returned and counted in
        :attr:`warmed`.
        """
        admitted = 0
        for block_id in block_ids:
            if block_id in self._resident:
                continue
            self._resident[block_id] = None
            admitted += 1
        self.warmed += admitted
        if self.tracer.enabled and admitted:
            self.tracer.emit("cache.warm", host=self.host.name,
                             blocks=admitted)
        return admitted

    def resident(self) -> List[object]:
        """Resident block ids in insertion order (diagnostics/tests)."""
        return list(self._resident)

    # -- accounting --------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BlockCache@{self.host.name} {len(self._resident)} blocks>"
