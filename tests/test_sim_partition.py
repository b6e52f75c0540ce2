"""Shard-partitioned serving tests (`repro.apps.serve.run_serve`,
`repro.bench.servebench.run_serve_parallel`).

The load-bearing property: a serving simulation carved into shards or
shard-span chunks and merged back is **bit-identical** to one coupled
simulation of the whole cluster — same :meth:`ServeResult.digest`
(sha256 over counts and every float-exact latency sample).  The
reference is always ``ServeApp(serving_topology(hosts), config)``
simulating every shard in one kernel; ``run_serve`` itself runs one
two-host simulator per shard, so it is a partition under test, not the
oracle.  These tests hold the whole chain to that: the sub-cluster
topology, ``ServeApp(shard_range=...)``, the per-shard runner, the
chunk point fn's JSON round trip through the real executor + cache,
the final merge, shards that receive no arrivals, and flapping links.
"""

import dataclasses
from collections import Counter

import pytest

from repro.apps.serve import ServeApp, ServeConfig, ServeResult, run_serve
from repro.apps.workload import build_schedule
from repro.bench.cache import ResultCache
from repro.bench.executor import SweepExecutor
from repro.bench.servebench import (
    TARGET_CHUNKS,
    run_serve_parallel,
    serve_shard_points,
    shard_chunks,
)
from repro.cluster.topology import serving_topology
from repro.errors import ExperimentError, TopologyError
from repro.faults import FaultPlan, LinkFault, injecting

CONFIG = ServeConfig(protocol="socketvia", hosts=16, rate_per_shard=300.0,
                     horizon=0.02, seed=17)

#: Flap windows on three links of the 16-host cluster: shard 3's
#: repository receive side, shard 5's frontend send side and shard 4's
#: frontend receive side (the one TCP's data crosses).  Flaps buffer
#: and release, so the run still completes with every query.
FLAPS = FaultPlan(name="partition-flaps", links={
    "clan.host0006.down": LinkFault(flap_windows=((0.003, 0.006),)),
    "clan.host0011.up": LinkFault(flap_windows=((0.001, 0.009),)),
    "clan.host0009.down": LinkFault(flap_windows=((0.004, 0.007),)),
})


def _schedule(config):
    return build_schedule(config.tenant_specs(), config.horizon, config.seed)


def _whole_cluster(config):
    """The coupled reference: one ServeApp simulating every shard of the
    whole cluster in one simulator.  Returns ``(result, cluster)``."""
    cluster = serving_topology(config.hosts, seed=config.seed)
    return ServeApp(cluster, config).run(_schedule(config)), cluster


def _oracle_digest(config):
    return _whole_cluster(config)[0].digest()


def _sharded_digest(config, spans):
    """Run each span on its own sub-cluster and merge in shard order."""
    schedule = _schedule(config)
    parts = []
    for lo, hi in spans:
        cluster = serving_topology(2 * (hi - lo), seed=config.seed,
                                   first_host=2 * lo)
        app = ServeApp(cluster, config, shard_range=(lo, hi))
        parts.append(app.run(schedule))
    return ServeResult.merged(config, parts).digest()


class TestShardChunks:
    def test_covers_range_contiguously(self):
        for n in (1, 2, 7, 31, 32, 33, 100, 512):
            chunks = shard_chunks(n)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == n
            for (_, a_hi), (b_lo, _) in zip(chunks, chunks[1:]):
                assert a_hi == b_lo

    def test_chunk_count_bounded_by_target(self):
        for n in (1, 16, 32, 33, 512, 1000):
            assert len(shard_chunks(n)) <= TARGET_CHUNKS

    def test_small_counts_one_shard_per_chunk(self):
        assert shard_chunks(4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError):
            shard_chunks(0)

    def test_independent_of_jobs(self):
        """Chunk boundaries are a function of the shard count only, so
        cache entries are shared across every ``--jobs`` value."""
        points = serve_shard_points(CONFIG)
        assert len(points) == len(shard_chunks(CONFIG.n_shards))
        spans = [(p.params["shard_lo"], p.params["shard_hi"])
                 for p in points]
        assert spans == shard_chunks(CONFIG.n_shards)


class TestShardRangeValidation:
    def test_rejects_bad_range(self):
        cluster = serving_topology(16, seed=CONFIG.seed)
        with pytest.raises(ExperimentError):
            ServeApp(cluster, CONFIG, shard_range=(4, 3))
        with pytest.raises(ExperimentError):
            ServeApp(cluster, CONFIG, shard_range=(0, 99))

    def test_rejects_undersized_cluster(self):
        cluster = serving_topology(4, seed=CONFIG.seed)
        with pytest.raises(ExperimentError):
            ServeApp(cluster, CONFIG, shard_range=(0, 8))

    def test_rejects_misaligned_subcluster(self):
        # A sub-cluster starting at the wrong global host name would
        # silently draw the wrong RNG streams; the app must refuse it.
        cluster = serving_topology(4, seed=CONFIG.seed, first_host=2)
        with pytest.raises(ExperimentError):
            ServeApp(cluster, CONFIG, shard_range=(0, 2))

    def test_rejects_negative_first_host(self):
        with pytest.raises(TopologyError):
            serving_topology(4, first_host=-2)

    def test_merged_rejects_empty(self):
        with pytest.raises(ExperimentError):
            ServeResult.merged(CONFIG, [])


class TestDigestIdentity:
    def test_full_run_digest_is_stable(self):
        assert run_serve(CONFIG).digest() == run_serve(CONFIG).digest()

    @pytest.mark.parametrize("arrival", ["poisson", "bursty"])
    @pytest.mark.parametrize("protocol", ["socketvia", "tcp"])
    def test_run_serve_matches_whole_cluster(self, protocol, arrival):
        config = ServeConfig(protocol=protocol, hosts=16,
                             rate_per_shard=300.0, horizon=0.02,
                             arrival=arrival, seed=17)
        result = run_serve(config)
        assert result.completed > 0
        assert result.digest() == _oracle_digest(config)

    @pytest.mark.parametrize("spans", [
        [(0, 8)],
        [(0, 4), (4, 8)],
        [(0, 3), (3, 5), (5, 8)],
        [(i, i + 1) for i in range(8)],
    ])
    def test_any_partitioning_matches_full_run(self, spans):
        assert _sharded_digest(CONFIG, spans) == _oracle_digest(CONFIG)

    def test_tcp_protocol_partitions_too(self):
        config = ServeConfig(protocol="tcp", hosts=8, rate_per_shard=300.0,
                             horizon=0.02, seed=17)
        spans = [(0, 2), (2, 4)]
        assert _sharded_digest(config, spans) == _oracle_digest(config)

    @pytest.mark.parametrize("arrival", ["poisson", "bursty"])
    @pytest.mark.parametrize("protocol", ["socketvia", "tcp"])
    def test_shards_without_arrivals(self, protocol, arrival):
        """A shard with an empty slice still starts, closes its queue
        and drains; its simulator must not perturb the merge."""
        config = ServeConfig(protocol=protocol, hosts=16,
                             rate_per_shard=50.0, horizon=0.01,
                             arrival=arrival, seed=17)
        per_shard = Counter(a.tenant_index % config.n_shards
                            for a in _schedule(config).arrivals)
        assert sum(1 for s in range(config.n_shards)
                   if not per_shard[s]) == 4
        result = run_serve(config)
        assert result.completed == result.offered > 0
        assert result.digest() == _oracle_digest(config)


class TestFaultsPartition:
    """Faults x partitioning: a plan acts on links by name, and every
    shard's links exist only in that shard's simulator."""

    @pytest.mark.parametrize("protocol", ["socketvia", "tcp"])
    def test_flapping_links_partition_too(self, protocol):
        config = ServeConfig(protocol=protocol, hosts=16,
                             rate_per_shard=300.0, horizon=0.02, seed=17)
        clean = _oracle_digest(config)
        with injecting(FLAPS):
            whole, cluster = _whole_cluster(config)
            per_shard = run_serve(config)
            chunked = _sharded_digest(config, [(0, 3), (3, 8)])
            parallel, _ = run_serve_parallel(config, jobs=1)
        assert cluster.faults.stats["flapped"] > 0
        assert whole.digest() != clean  # the plan moves the answer
        assert per_shard.digest() == whole.digest()
        assert chunked == whole.digest()
        assert parallel.digest() == whole.digest()


class TestRunServeParallel:
    def test_matches_serial_across_jobs_and_cache(self, tmp_path):
        """jobs=1, jobs=2, cold and fully cached: one digest, the
        whole cluster's."""
        expect = _oracle_digest(CONFIG)

        merged1, stats1 = run_serve_parallel(CONFIG, jobs=1)
        assert merged1.digest() == expect
        assert stats1["points"] == len(shard_chunks(CONFIG.n_shards))
        assert stats1["cache_hits"] == 0

        cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=2, cache=cache) as ex:
            merged2, stats2 = run_serve_parallel(CONFIG, executor=ex)
        assert merged2.digest() == expect
        assert stats2["jobs"] == 2
        assert stats2["cache_misses"] == stats2["points"]

        warm = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=warm) as ex:
            merged3, stats3 = run_serve_parallel(CONFIG, executor=ex)
        assert merged3.digest() == expect
        assert stats3["cache_hits"] == stats3["points"]
        assert stats3["cache_misses"] == 0

    @pytest.mark.parametrize("tenants", [3, 20])
    def test_chunks_with_fewer_or_more_tenants_than_shards(self, tenants):
        """Each chunk draws only its own tenants' arrivals; with 3
        tenants on 8 shards, five chunks draw none at all."""
        config = dataclasses.replace(CONFIG, tenants=tenants)
        merged, _ = run_serve_parallel(config, jobs=1)
        assert merged.offered > 0
        assert merged.digest() == _oracle_digest(config)

    def test_merged_counts_add_up(self):
        merged, _ = run_serve_parallel(CONFIG, jobs=1)
        single, _ = _whole_cluster(CONFIG)
        assert merged.offered == single.offered
        assert merged.admitted == single.admitted
        assert merged.dropped == single.dropped
        assert merged.completed == single.completed
        assert merged.elapsed == single.elapsed
        assert merged.latencies == single.latencies
