"""Unit tests for the block-cache tier (repro.cache).

Covers the eviction policies (LRU / LFU / clock victim selection),
the :class:`BlockCache` accounting contract (exact hits / misses /
insertions / evictions, warm pre-population), the ``cache.*`` trace
layer, and :class:`CacheConfig` validation.
"""

import pytest

from repro.cache import (
    EVICTION_POLICIES,
    PLACEMENTS,
    BlockCache,
    CacheConfig,
    make_policy,
)
from repro.cluster.host import Host
from repro.sim import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def host():
    return Host(Simulator(), "h0")


class TestPolicies:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    def test_lru_victim_is_least_recently_touched(self):
        p = make_policy("lru")
        for b in (1, 2, 3):
            p.on_insert(b)
        p.on_hit(1)  # 2 becomes the coldest
        assert p.victim() == 2

    def test_lfu_victim_is_least_frequent(self):
        p = make_policy("lfu")
        for b in (1, 2, 3):
            p.on_insert(b)
        p.on_hit(1)
        p.on_hit(1)
        p.on_hit(3)
        assert p.victim() == 2

    def test_lfu_breaks_frequency_ties_by_recency(self):
        p = make_policy("lfu")
        for b in (1, 2, 3):
            p.on_insert(b)
        p.on_hit(1)  # 2 and 3 tie at zero hits; 2 is older
        assert p.victim() == 2

    def test_clock_second_chance(self):
        p = make_policy("clock")
        for b in (1, 2, 3):
            p.on_insert(b)
        p.on_hit(1)  # referenced bit set: 1 gets a second chance
        victim = p.victim()
        assert victim != 1

    @pytest.mark.parametrize("name", sorted(EVICTION_POLICIES))
    def test_every_policy_survives_full_cycle(self, name):
        p = make_policy(name)
        for b in range(4):
            p.on_insert(b)
        for b in (0, 2):
            p.on_hit(b)
        victim = p.victim()
        assert victim in range(4)
        p.remove(victim)
        assert p.victim() != victim


class TestBlockCache:
    def test_hit_miss_accounting_is_exact(self, host):
        cache = BlockCache(host)
        assert cache.get("a") is False
        cache.put("a")
        assert cache.get("a") is True
        assert (cache.hits, cache.misses, cache.insertions) == (1, 1, 1)
        assert cache.hit_rate == 0.5

    def test_hit_rate_zero_before_any_lookup(self, host):
        assert BlockCache(host).hit_rate == 0.0

    def test_unbounded_cache_never_evicts(self, host):
        cache = BlockCache(host, capacity_blocks=0)
        for b in range(1000):
            cache.put(b)
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_capacity_evicts_lru_victim(self, host):
        cache = BlockCache(host, capacity_blocks=2, eviction="lru")
        cache.put("a")
        cache.put("b")
        cache.get("a")  # refresh: "b" is now the LRU victim
        assert cache.put("c") == "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_reinsert_refreshes_without_counting(self, host):
        cache = BlockCache(host, capacity_blocks=2, eviction="lru")
        cache.put("a")
        cache.put("b")
        cache.put("a")  # refresh, not an insertion
        assert cache.insertions == 2
        assert cache.put("c") == "b"

    def test_warm_sets_temperature_without_hit_miss_noise(self, host):
        cache = BlockCache(host)
        assert cache.warm(range(8)) == 8
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.warmed == 8
        assert all(cache.get(b) for b in range(8))

    def test_warm_respects_capacity(self, host):
        cache = BlockCache(host, capacity_blocks=3)
        assert cache.warm(range(10)) == 3
        assert cache.resident() == [0, 1, 2]

    def test_negative_capacity_rejected(self, host):
        with pytest.raises(ValueError):
            BlockCache(host, capacity_blocks=-1)

    def test_trace_layer_emission(self, host):
        tracer = Tracer()
        seen = []
        tracer.subscribe("", lambda rec: seen.append(rec.kind))
        cache = BlockCache(host, capacity_blocks=1, tracer=tracer)
        cache.warm([0])
        cache.get(0)
        cache.get(1)
        cache.put(1)  # evicts 0
        assert seen == ["cache.warm", "cache.hit", "cache.miss",
                        "cache.evict", "cache.insert"]


class TestCacheConfig:
    def test_defaults_are_valid(self):
        cfg = CacheConfig()
        assert cfg.placement in PLACEMENTS
        assert cfg.eviction in EVICTION_POLICIES

    @pytest.mark.parametrize("kwargs", [
        {"placement": "moon"},
        {"eviction": "mru"},
        {"capacity_blocks": -1},
        {"stripe_width": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)
