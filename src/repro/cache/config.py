"""Declarative cache/stripe configuration.

:class:`CacheConfig` bundles the knobs that change *what a measurement
means* when a block-cache tier sits between storage and the client:
where the cache lives, how it evicts, how big it is, and how many
parallel stripes a logical read fans across.  Scenarios build one from
their own explicit fields
(:meth:`repro.apps.wancache.WanCacheConfig.resolved_cache`), so a
config always travels inside a point's ``params`` and the sweep-result
cache keys on it there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policies import EVICTION_POLICIES

__all__ = [
    "PLACEMENTS",
    "CacheConfig",
]

#: Where the cache host sits relative to the WAN (docs/CACHING.md):
#: ``client`` — on the frontend host itself (a hit is a local lookup);
#: ``edge`` — on a dedicated host one LAN hop from the frontend (the
#: DPSS arrangement: a hit pays a LAN round trip at LAN rates);
#: ``storage`` — on the storage side (a hit still crosses the WAN but
#: skips the storage read penalty).
PLACEMENTS = ("client", "edge", "storage")


@dataclass(frozen=True)
class CacheConfig:
    """One block-cache + striping configuration.

    ``capacity_blocks=0`` means *unbounded* (never evict) — the bench
    panels use it so temperature, not eviction pressure, is the only
    independent variable.
    """

    placement: str = "edge"
    eviction: str = "lru"
    capacity_blocks: int = 0
    stripe_width: int = 1

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"eviction must be one of {sorted(EVICTION_POLICIES)}, "
                f"got {self.eviction!r}"
            )
        if self.capacity_blocks < 0:
            raise ValueError("capacity_blocks must be >= 0")
        if self.stripe_width < 1:
            raise ValueError("stripe_width must be >= 1")
