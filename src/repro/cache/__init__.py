"""``repro.cache`` — the distributed block-cache tier.

The WAN-visualization literature (LBNL's DPSS work) interposes a
network block cache between storage and the client so that warm data
is served at cache-host link speed instead of re-crossing a high
bandwidth-delay-product WAN.  This package is that tier for the
simulation:

* :class:`~repro.cache.service.BlockCache` — the per-host cache
  service: block-granular get/put, unbounded residency, deterministic
  hit/miss accounting, ``cache.*`` trace points.

The scenario that puts the tier to work, and decides where the cache
sits (:data:`repro.apps.wancache.PLACEMENTS`), is
:mod:`repro.apps.wancache`; the striped transfers that fetch misses
are :mod:`repro.transport.striped`.  See docs/CACHING.md.
"""

from repro.cache.service import BlockCache

__all__ = ["BlockCache"]
