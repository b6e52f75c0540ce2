"""Unit tests for the block-cache tier (repro.cache).

Covers the :class:`BlockCache` accounting contract (exact hits /
misses / insertions, warm pre-population, unbounded residency) and the
``cache.*`` trace layer.
"""

import pytest

from repro.cache import BlockCache
from repro.cluster.host import Host
from repro.sim import Simulator
from repro.sim.trace import Tracer


@pytest.fixture
def host():
    return Host(Simulator(), "h0")


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
        cache = BlockCache(host)
        for b in range(1000):
            cache.put(b)
        assert len(cache) == 1000
        assert cache.resident() == list(range(1000))

    def test_reinsert_refreshes_without_counting(self, host):
        cache = BlockCache(host)
        cache.put("a")
        cache.put("b")
        cache.put("a")  # already resident: not an insertion, not a hit
        assert (cache.insertions, cache.hits, cache.misses) == (2, 0, 0)
        assert cache.resident() == ["a", "b"]

    def test_warm_sets_temperature_without_hit_miss_noise(self, host):
        cache = BlockCache(host)
        assert cache.warm(range(8)) == 8
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.warmed == 8
        assert all(cache.get(b) for b in range(8))

    def test_trace_layer_emission(self, host):
        tracer = Tracer()
        seen = []
        tracer.subscribe("", lambda rec: seen.append(rec.kind))
        cache = BlockCache(host, tracer=tracer)
        cache.warm([0])
        cache.get(0)
        cache.get(1)
        cache.put(1)
        cache.put(1)  # resident already: no record
        assert seen == ["cache.warm", "cache.hit", "cache.miss",
                        "cache.insert"]
