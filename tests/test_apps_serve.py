"""The open-loop serving scenario (repro.apps.serve).

Covers the shard/admission plumbing end to end on small clusters:
query-size mapping, conservation accounting (every offered query is
admitted-and-completed or counted as a drop — nothing is lost), queue
quiescence after close, and overload behaviour.
"""

import pytest

from repro.apps.serve import (
    SERVE_BLOCK_BYTES,
    SERVE_IMAGE_BYTES,
    ServeConfig,
    ServeResult,
    run_serve,
)
from repro.apps.workload import build_schedule
from repro.errors import ExperimentError


class TestServeConfig:
    def test_needs_two_hosts(self):
        with pytest.raises(ExperimentError):
            ServeConfig(hosts=1)

    def test_rate_must_be_positive(self):
        with pytest.raises(ExperimentError):
            ServeConfig(rate_per_shard=0.0)

    def test_shards_are_host_pairs(self):
        assert ServeConfig(hosts=64).n_shards == 32
        assert ServeConfig(hosts=2).n_shards == 1

    def test_blocks_for_query_kinds(self):
        config = ServeConfig()
        n_blocks = SERVE_IMAGE_BYTES // SERVE_BLOCK_BYTES
        assert config.blocks_for("complete") == n_blocks == 8
        assert config.blocks_for("partial") == 1
        assert config.blocks_for("zoom") == 4
        with pytest.raises(ExperimentError):
            config.blocks_for("teleport")

    def test_tenant_specs_split_the_aggregate_rate(self):
        config = ServeConfig(hosts=8, rate_per_shard=100.0)
        tenants = config.tenant_specs()
        assert len(tenants) == config.n_shards == 4
        assert sum(t.rate for t in tenants) == pytest.approx(400.0)
        # More tenants than shards: same aggregate, thinner slices.
        many = ServeConfig(hosts=8, rate_per_shard=100.0, tenants=16)
        specs = many.tenant_specs()
        assert len(specs) == 16
        assert sum(t.rate for t in specs) == pytest.approx(400.0)


class TestServeResultAccounting:
    def _result(self, **kw):
        base = dict(
            config=ServeConfig(),
            offered=10, admitted=8, dropped=2, completed=8,
            elapsed=1.0,
            latencies={"complete": [0.1], "partial": [0.2] * 6,
                       "zoom": [0.3]},
            events=800, high_water=3,
        )
        base.update(kw)
        return ServeResult(**base)

    def test_conservation_enforced_at_construction(self):
        with pytest.raises(ExperimentError, match="conservation"):
            self._result(dropped=1)

    def test_rates_and_percentiles(self):
        result = self._result()
        assert result.drop_rate == pytest.approx(0.2)
        assert result.throughput == pytest.approx(8.0)
        assert result.events_per_query == pytest.approx(100.0)
        assert result.latency_p(50) == 0.2
        assert result.latency_p(100, "zoom") == 0.3
        assert result.p99 == 0.3

    def test_empty_kind_has_no_percentile(self):
        result = self._result(
            admitted=7, completed=7,
            latencies={"complete": [0.1], "partial": [0.2] * 6, "zoom": []},
            dropped=3)
        with pytest.raises(ExperimentError):
            result.latency_p(50, "zoom")


class TestServeRuns:
    LIGHT = dict(hosts=4, rate_per_shard=200.0, horizon=0.02, seed=23)
    # Far beyond TCP's ~570 q/s/shard knee, tiny queues: must drop.
    OVERLOAD = dict(hosts=4, rate_per_shard=2500.0, horizon=0.02,
                    queue_capacity=2, seed=23)

    def test_light_load_completes_everything(self):
        result = run_serve(ServeConfig(**self.LIGHT))
        assert result.dropped == 0
        assert result.offered == result.completed > 0
        assert result.high_water <= ServeConfig(**self.LIGHT).queue_capacity

    def test_overload_drops_are_counted_not_lost(self):
        result = run_serve(ServeConfig(protocol="tcp", **self.OVERLOAD))
        assert result.dropped > 0
        # Conservation: the ServeResult constructor enforces
        # offered == admitted + dropped, and the app enforces
        # completed == admitted, so nothing vanished.
        assert result.offered == result.completed + result.dropped
        assert 0.0 < result.drop_rate < 1.0
        assert result.high_water <= 2

    def test_queues_closed_and_drained_after_run(self):
        config = ServeConfig(**self.LIGHT)
        from repro.apps.serve import ServeApp
        from repro.cluster.topology import serving_topology

        cluster = serving_topology(config.hosts, seed=config.seed)
        app = ServeApp(cluster, config)
        schedule = build_schedule(config.tenant_specs(), config.horizon,
                                  config.seed)
        app.run(schedule)
        for queue in app.state.queues:
            assert queue.closed
            assert queue.depth == 0

    def test_rerun_is_bit_identical(self):
        a = run_serve(ServeConfig(**self.LIGHT))
        b = run_serve(ServeConfig(**self.LIGHT))
        assert a.latencies == b.latencies
        assert (a.offered, a.dropped, a.events) == \
            (b.offered, b.dropped, b.events)

    def test_per_kind_latency_ordering(self):
        # An 8-block complete response costs more than a 1-block
        # partial on the same shard, and the mix exercises all kinds.
        result = run_serve(ServeConfig(hosts=4, rate_per_shard=300.0,
                                       horizon=0.05, seed=23))
        for kind in ("complete", "partial", "zoom"):
            assert result.latencies[kind], f"no {kind} queries completed"
        assert result.latency_p(50, "complete") > \
            result.latency_p(50, "partial")
