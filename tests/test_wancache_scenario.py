"""End-to-end properties of the WAN block-cache scenario
(repro.apps.wancache).

What a cache hit *costs* is the placement contract (docs/CACHING.md):
client hits are local, edge hits pay one LAN store-and-forward hop,
storage hits still cross the WAN but skip the read penalty.  These
tests pin that ordering, the exact hit/miss accounting at every
temperature, determinism, and the config defaults and validation.
"""

import pytest

from repro.apps.wancache import (
    PLACEMENTS,
    WanBulkConfig,
    WanCacheConfig,
    run_wan_bulk,
    run_wan_queries,
)
from repro.cluster.topology import wan_topology
from repro.errors import TopologyError


def queries(**kwargs):
    # 3 x 4-block queries over a 16-block space: "warm" pre-warms the
    # first half (blocks 0..7), so queries 0-1 hit and query 2 misses
    # — warm sits strictly between cold (all-miss) and hot (all-hit).
    kwargs.setdefault("stripe_width", 2)
    kwargs.setdefault("n_blocks", 16)
    kwargs.setdefault("blocks_per_query", 4)
    kwargs.setdefault("n_queries", 3)
    return run_wan_queries(WanCacheConfig(**kwargs))


class TestTemperatures:
    @pytest.mark.parametrize("placement", ["client", "edge"])
    def test_latency_orders_cold_warm_hot(self, placement):
        cold = queries(temperature="cold", placement=placement)
        warm = queries(temperature="warm", placement=placement)
        hot = queries(temperature="hot", placement=placement)
        assert cold.mean_latency > warm.mean_latency > hot.mean_latency

    def test_hit_accounting_is_exact(self):
        cold = queries(temperature="cold")
        hot = queries(temperature="hot")
        warm = queries(temperature="warm")
        # 3 queries x 4 blocks, disjoint block runs.
        assert (cold.hits, cold.misses) == (0, 12)
        assert (hot.hits, hot.misses) == (12, 0)
        assert warm.hits + warm.misses == 12
        assert 0.0 < warm.hit_rate < 1.0

    def test_cold_misses_populate_the_cache(self):
        cold = queries(temperature="cold")
        assert cold.insertions == 12

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            WanCacheConfig(temperature="tepid")


class TestPlacements:
    def test_client_hits_beat_edge_hits_beat_storage_hits(self):
        # Hot cache everywhere; only the placement varies.  A client
        # hit is a local lookup, an edge hit one LAN hop, a storage
        # hit a full WAN traversal minus the read penalty.
        lat = {p: queries(temperature="hot", placement=p).mean_latency
               for p in ("client", "edge", "storage")}
        assert lat["client"] < lat["edge"] < lat["storage"]

    def test_storage_hits_skip_the_read_penalty(self):
        hot = queries(temperature="hot", placement="storage",
                      read_ns_per_byte=40.0)
        cold = queries(temperature="cold", placement="storage",
                       read_ns_per_byte=40.0)
        assert hot.mean_latency < cold.mean_latency
        assert hot.hit_rate == 1.0


class TestDeterminism:
    def test_repeat_run_is_bit_identical(self):
        a = queries(temperature="warm")
        b = queries(temperature="warm")
        assert a.latencies == b.latencies
        assert a.elapsed == b.elapsed
        assert (a.hits, a.misses) == (b.hits, b.misses)

    def test_bulk_repeat_is_bit_identical(self):
        cfg = WanBulkConfig(stripe_width=3, n_blocks=24,
                            block_bytes=64 * 1024, storage_hosts=3)
        a, b = run_wan_bulk(cfg), run_wan_bulk(cfg)
        assert (a.elapsed, a.digest) == (b.elapsed, b.digest)


class TestAmbientConfig:
    """The cache knobs are plain config fields; nothing ambient
    fills them in."""

    def test_no_ambient_uses_defaults(self):
        cfg = WanCacheConfig()
        assert (cfg.placement, cfg.stripe_width) == ("edge", 1)
        assert cfg.placement in PLACEMENTS

    def test_ambient_drives_the_run(self):
        r = queries(temperature="hot", placement="client")
        assert r.config.placement == "client"
        assert r.hit_rate == 1.0


class TestWanCacheConfig:
    @pytest.mark.parametrize("kwargs", [
        {"placement": "moon"},
        {"stripe_width": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WanCacheConfig(**kwargs)


class TestTopology:
    def test_wan_topology_validation(self):
        with pytest.raises(TopologyError):
            wan_topology(storage_hosts=0)

    def test_wan_topology_shape(self):
        cluster = wan_topology(storage_hosts=2)
        assert sorted(cluster.hosts) == ["client00", "edge00",
                                         "store00", "store01"]
        assert cluster.fabric_names == ["clan", "wan"]
        assert cluster.fabric("wan").propagation > 0
        assert cluster.fabric("clan").propagation == 0
