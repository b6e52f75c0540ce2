"""Eviction policies for the block cache.

Each policy tracks residency metadata for the keys of one
:class:`~repro.cache.service.BlockCache` and answers one question:
*which resident block leaves when the cache is full?*  All three are
exactly deterministic — iteration order is insertion order (Python
dicts), tie-breaks are explicit — so a cache run is reproducible
bit-for-bit across processes and platforms.

* ``lru``  — least recently used: hits refresh recency, the victim is
  the stalest key.
* ``lfu``  — least frequently used: hits bump a counter, the victim is
  the key with the lowest count; ties fall back to LRU order among the
  tied keys.
* ``clock`` — second chance: keys sit on a ring with one reference
  bit; the hand sweeps, clearing set bits, and evicts the first key it
  finds clear.  The classic low-overhead LRU approximation.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["EVICTION_POLICIES", "make_policy"]


class _LruPolicy:
    """Victim = least recently touched (dict order as recency queue)."""

    name = "lru"

    def __init__(self) -> None:
        self._order: Dict[object, None] = {}

    def on_insert(self, key) -> None:
        self._order[key] = None

    def on_hit(self, key) -> None:
        # Re-append: dicts preserve insertion order, so moving the key
        # to the tail makes the head the least recently used.
        self._order.pop(key, None)
        self._order[key] = None

    def victim(self) -> object:
        return next(iter(self._order))

    def remove(self, key) -> None:
        self._order.pop(key, None)


class _LfuPolicy:
    """Victim = lowest hit count, LRU among ties."""

    name = "lfu"

    def __init__(self) -> None:
        self._counts: Dict[object, int] = {}
        self._lru = _LruPolicy()

    def on_insert(self, key) -> None:
        self._counts[key] = 0
        self._lru.on_insert(key)

    def on_hit(self, key) -> None:
        self._counts[key] += 1
        self._lru.on_hit(key)

    def victim(self) -> object:
        lowest = min(self._counts.values())
        # The LRU order scan makes the tie-break deterministic: among
        # equally-cold keys the stalest one goes.
        for key in self._lru._order:
            if self._counts[key] == lowest:
                return key
        raise KeyError("victim() on an empty cache")

    def remove(self, key) -> None:
        self._counts.pop(key, None)
        self._lru.remove(key)


class _ClockPolicy:
    """Second-chance ring: one reference bit per key, a sweeping hand."""

    name = "clock"

    def __init__(self) -> None:
        self._ring: List[object] = []
        self._ref: Dict[object, bool] = {}
        self._hand = 0

    def on_insert(self, key) -> None:
        # New keys join behind the hand with their bit clear, exactly
        # like a page faulted into the frame the hand just freed.
        self._ring.insert(self._hand, key)
        self._hand += 1
        self._ref[key] = False

    def on_hit(self, key) -> None:
        self._ref[key] = True

    def victim(self) -> object:
        if not self._ring:
            raise KeyError("victim() on an empty cache")
        while True:
            if self._hand >= len(self._ring):
                self._hand = 0
            key = self._ring[self._hand]
            if self._ref[key]:
                self._ref[key] = False
                self._hand += 1
            else:
                return key

    def remove(self, key) -> None:
        if key not in self._ref:
            return
        idx = self._ring.index(key)
        del self._ring[idx]
        del self._ref[key]
        if idx < self._hand:
            self._hand -= 1


#: Policy name -> factory.  The names are part of cache-config
#: fingerprints (and therefore sweep-cache keys); renaming one is a
#: behavior change.
EVICTION_POLICIES = {
    "lru": _LruPolicy,
    "lfu": _LfuPolicy,
    "clock": _ClockPolicy,
}


def make_policy(name: str):
    """Instantiate an eviction policy by name."""
    try:
        return EVICTION_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; "
            f"have {sorted(EVICTION_POLICIES)}"
        ) from None
