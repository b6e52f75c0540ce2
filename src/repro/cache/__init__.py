"""``repro.cache`` — the distributed block-cache tier.

The WAN-visualization literature (LBNL's DPSS work) interposes a
network block cache between storage and the client so that warm data
is served at cache-host link speed instead of re-crossing a high
bandwidth-delay-product WAN.  This package is that tier for the
simulation:

* :class:`~repro.cache.service.BlockCache` — the per-host cache
  service: block-granular get/put, LRU/LFU/clock eviction,
  deterministic hit/miss accounting, ``cache.*`` trace points;
* :class:`~repro.cache.config.CacheConfig` — declarative placement /
  eviction / capacity / stripe-width configuration, validated at
  construction.

The scenario that puts the tier to work is
:mod:`repro.apps.wancache`; the striped transfers that fetch misses
are :mod:`repro.transport.striped`.  See docs/CACHING.md.
"""

from repro.cache.config import PLACEMENTS, CacheConfig
from repro.cache.policies import EVICTION_POLICIES, make_policy
from repro.cache.service import BlockCache

__all__ = [
    "PLACEMENTS",
    "EVICTION_POLICIES",
    "BlockCache",
    "CacheConfig",
    "make_policy",
]
