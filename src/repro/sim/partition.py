"""Shard-parallel execution of serve-style simulations.

The serving scenario (docs/SERVING.md) is *provably partitionable*: a
tenant's queries live wholly on one shard (``tenant_index % n_shards``),
every shard's filters run on its own two hosts with per-port switch
state, per-host RNG streams are keyed by host *name*, and each shard's
dispatcher clocks off its own pre-drawn arrival slice
(:meth:`repro.apps.serve.ServeApp._dispatch_shard`).  A sub-cluster
built over a shard span therefore reproduces, float-for-float, exactly
what the full cluster computes for those shards.

This module turns that property into wall-clock speedup: it carves one
logical serving run into contiguous shard-span *chunks*, runs each
chunk as an ordinary bench :class:`~repro.bench.executor.Point` through
a :class:`~repro.bench.executor.SweepExecutor` — inheriting its
``ProcessPoolExecutor`` fan-out, spec shipping, and content-addressed
result cache — and merges the per-chunk results in deterministic shard
order with :meth:`repro.apps.serve.ServeResult.merged`.  The merged
result is **bit-identical** to the single-process run: same
:meth:`~repro.apps.serve.ServeResult.digest` for ``--jobs 1``, ``2``,
``4``, cold or cached (``tests/test_sim_partition.py`` holds it to
that).

Chunking is a function of the shard count only — never of ``jobs`` —
so cache entries are shared between runs at different parallelism.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.apps.serve import ServeApp, ServeConfig, ServeResult
from repro.errors import ExperimentError

__all__ = [
    "TARGET_CHUNKS",
    "shard_chunks",
    "serve_shard_cell",
    "serve_shard_points",
    "run_serve_parallel",
]

#: Upper bound on chunks per run: enough slack for dynamic load balance
#: across any sane ``--jobs`` while keeping per-chunk topology setup
#: amortized.  Chunk boundaries depend only on the shard count, so the
#: same chunks (and cache keys) serve every ``--jobs`` value.
TARGET_CHUNKS = 32


def shard_chunks(n_shards: int, target: int = TARGET_CHUNKS) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` shard spans covering ``range(n_shards)``."""
    if n_shards < 1:
        raise ExperimentError(f"need >= 1 shard, got {n_shards}")
    size = max(1, -(-n_shards // target))
    return [(lo, min(lo + size, n_shards)) for lo in range(0, n_shards, size)]


def serve_shard_cell(
    protocol: str,
    hosts: int,
    rate_per_shard: float,
    horizon: float,
    queue_capacity: int,
    arrival: str,
    tenants: int,
    seed: int,
    shard_lo: int,
    shard_hi: int,
) -> Dict[str, Any]:
    """Point fn: run shards ``[shard_lo, shard_hi)`` of a serving run.

    Builds the sub-cluster covering exactly that span (global host
    names, so name-keyed RNG reproduces the full-cluster behaviour),
    replays the span's slice of the full pre-drawn schedule, and
    returns the span's :class:`ServeResult` fields as a JSON-canonical
    dict — the executor's cache and process-pool plumbing handle it
    like any other figure point.
    """
    from repro.apps.workload import build_schedule
    from repro.cluster.topology import serving_topology

    config = ServeConfig(
        protocol=protocol,
        hosts=hosts,
        rate_per_shard=rate_per_shard,
        horizon=horizon,
        queue_capacity=queue_capacity,
        arrival=arrival,
        tenants=tenants,
        seed=seed,
    )
    schedule = build_schedule(config.tenant_specs(), config.horizon, config.seed)
    cluster = serving_topology(
        2 * (shard_hi - shard_lo), seed=config.seed, first_host=2 * shard_lo
    )
    result = ServeApp(cluster, config, shard_range=(shard_lo, shard_hi)).run(
        schedule
    )
    return {
        "offered": result.offered,
        "admitted": result.admitted,
        "dropped": result.dropped,
        "completed": result.completed,
        "elapsed": result.elapsed,
        "latencies": result.latencies,
        "events": result.events,
        "high_water": result.high_water,
    }


def serve_shard_points(config: ServeConfig) -> List[Any]:
    """One executor :class:`Point` per shard chunk, in shard order."""
    from repro.bench.executor import Point

    return [
        Point(
            "serve_shard",
            serve_shard_cell,
            {
                "protocol": config.protocol,
                "hosts": int(config.hosts),
                "rate_per_shard": float(config.rate_per_shard),
                "horizon": float(config.horizon),
                "queue_capacity": int(config.queue_capacity),
                "arrival": config.arrival,
                "tenants": int(config.tenants),
                "seed": int(config.seed),
                "shard_lo": int(lo),
                "shard_hi": int(hi),
            },
        )
        for lo, hi in shard_chunks(config.n_shards)
    ]


def run_serve_parallel(
    config: ServeConfig,
    jobs: Optional[int] = None,
    executor: Optional[Any] = None,
) -> Tuple[ServeResult, Dict[str, int]]:
    """Run one serving simulation sharded across worker processes.

    Parameters
    ----------
    config:
        The whole-cluster run to perform.
    jobs:
        Worker processes (``None`` -> ``REPRO_JOBS`` env -> 1, ``0`` ->
        one per CPU), ignored when *executor* is given.
    executor:
        An existing :class:`~repro.bench.executor.SweepExecutor` to run
        the chunks through (shares its pool and cache); by default a
        fresh cache-less one is created and closed here.

    Returns the merged :class:`ServeResult` — digest-identical to
    ``run_serve(config)`` — and a stats dict with ``points`` /
    ``cache_hits`` / ``cache_misses`` / ``jobs``.
    """
    from repro.bench.executor import SweepExecutor

    points = serve_shard_points(config)
    own = executor is None
    ex = SweepExecutor(jobs=jobs, cache=None) if own else executor
    try:
        results = ex.run(points)
    finally:
        if own:
            ex.close()
    parts = [
        ServeResult(
            config=config,
            offered=int(r.value["offered"]),
            admitted=int(r.value["admitted"]),
            dropped=int(r.value["dropped"]),
            completed=int(r.value["completed"]),
            elapsed=float(r.value["elapsed"]),
            latencies={k: list(v) for k, v in r.value["latencies"].items()},
            events=int(r.value["events"]),
            high_water=int(r.value["high_water"]),
        )
        for r in results
    ]
    merged = ServeResult.merged(config, parts)
    hits = sum(1 for r in results if r.cached)
    stats = {
        "points": len(points),
        "cache_hits": hits,
        "cache_misses": len(points) - hits,
        "jobs": ex.jobs,
    }
    return merged, stats
