"""The ``serve`` suite: open-loop serving capacity vs transport.

Two panels (docs/SERVING.md):

* ``serve`` — sustained throughput, exact p50/p99 latency, and drop
  rate vs offered load per shard, TCP vs SocketVIA side by side, on a
  256-host sharded topology.  Poisson rows sweep the load axis across
  the capacity knee of both transports; two bursty (MMPP on/off) rows
  repeat mid-axis loads at the *same mean rate* to show what arrival
  clumping alone does to tails and drops.
* ``serve_scale`` — events-per-completed-query at a fixed per-shard
  load while the cluster grows 64 -> 1024 hosts.  The simulator's cost
  per query must not grow with cluster width (indexed demux, bucketed
  demand-driven pick, O(1) shard routing); the ``serve_scale_flat``
  claim pins the spread to <= 1.10.

Both panels decompose into cache-addressable points
(:func:`serve_points` / :func:`serve_scale_points`) exactly like the
figure sweeps, so ``bench run serve --jobs N`` parallelizes per cell
and reruns are cache hits.  Every metric is simulated or an event
count — no wall-clock columns — so the comparator gates the whole
record exactly.  The suite's third panel, ``serve_par``, is a meta
panel timing the serial and the shard-parallel execution of one run on
the host (:func:`serve_parallel_benchmark`); the shard-parallel runner
it times, :func:`run_serve_parallel`, also backs
``python -m repro serve --jobs N``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.serve import ServeConfig, ServeResult, run_serve, run_shard_span
from repro.apps.workload import OpenLoopSchedule, build_schedule
from repro.bench.executor import Point, PointPlan, SweepExecutor
from repro.bench.records import ExperimentTable, ratio
from repro.bench.suites import (
    Anchor,
    BenchSuite,
    Claim,
    Panel,
    _rows,
    _sweep_host_cpus,
)
from repro.errors import ExperimentError

__all__ = [
    "serve_cell",
    "serve_scale_cell",
    "serve_points",
    "serve_scale_points",
    "serve_parallel_benchmark",
    "TARGET_CHUNKS",
    "shard_chunks",
    "serve_shard_cell",
    "serve_shard_points",
    "run_serve_parallel",
    "SERVE_HOSTS",
    "SERVE_RATES",
    "SERVE_BURSTY_RATES",
    "SERVE_SCALE_HOSTS",
    "SERVE_SCALE_RATE",
    "SERVE_SEED",
    "SERVE_PAR_HOSTS",
    "SERVE_PAR_JOBS",
    "BENCH_SUITES",
]

#: Load panel cluster width (>= 256 hosts per the acceptance bar).
SERVE_HOSTS = 256
#: Offered load axis, queries/second per shard (Poisson rows).  Spans
#: under -> over the capacity knee of both transports: TCP saturates
#: near ~570 q/s/shard, SocketVIA near ~900.
SERVE_RATES = (200.0, 500.0, 800.0, 1100.0)
#: Mid-axis loads repeated with MMPP on/off arrivals (same mean rate).
SERVE_BURSTY_RATES = (500.0, 800.0)
#: Arrival window of the load panel (seconds of simulated time).
SERVE_HORIZON = 0.05
#: Scale panel: cluster widths at a fixed per-shard load.
SERVE_SCALE_HOSTS = (64, 256, 1024)
SERVE_SCALE_RATE = 300.0
SERVE_SCALE_HORIZON = 0.04
SERVE_SEED = 17

_PROTOCOLS = ("socketvia", "tcp")

_SERVE_NOTE = (
    "open-loop arrivals: the offered schedule is drawn before the "
    "simulation and is identical for both transports (offered_sv == "
    "offered_tcp) — overload shows up as drops, never as a slowed client"
)
_SCALE_NOTE = (
    "fixed 300 q/s/shard while the cluster grows; events per completed "
    "query must stay flat (spread <= 1.10) — per-query cost is "
    "independent of cluster width"
)


def serve_cell(protocol: str, hosts: int, rate_per_shard: float,
               horizon: float, arrival: str, seed: int) -> List[float]:
    """Point: one (protocol, load, arrival-process) serving run.

    Returns ``[offered, qps, p50_ms, p99_ms, drop_rate]``.
    """
    result = run_serve(ServeConfig(
        protocol=protocol,
        hosts=hosts,
        rate_per_shard=rate_per_shard,
        horizon=horizon,
        arrival=arrival,
        seed=seed,
    ))
    return [
        float(result.offered),
        float(result.throughput),
        float(result.p50 * 1e3),
        float(result.p99 * 1e3),
        float(result.drop_rate),
    ]


def serve_scale_cell(protocol: str, hosts: int, rate_per_shard: float,
                     horizon: float, arrival: str, seed: int) -> List[float]:
    """Point: one (protocol, cluster-width) cost-flatness run.

    Returns ``[completed, events_per_query]``.
    """
    result = run_serve(ServeConfig(
        protocol=protocol,
        hosts=hosts,
        rate_per_shard=rate_per_shard,
        horizon=horizon,
        arrival=arrival,
        seed=seed,
    ))
    return [float(result.completed), float(result.events_per_query)]


def _serve_table() -> ExperimentTable:
    return ExperimentTable(
        "serve",
        "Open-loop serving: throughput / latency / drops vs offered load",
        ["arrival", "rate_per_shard", "offered_sv", "offered_tcp",
         "SocketVIA_qps", "TCP_qps",
         "SocketVIA_p50_ms", "TCP_p50_ms",
         "SocketVIA_p99_ms", "TCP_p99_ms",
         "SocketVIA_drop_rate", "TCP_drop_rate"],
    )


def _scale_table() -> ExperimentTable:
    return ExperimentTable(
        "serve_scale",
        "Per-query event cost vs cluster width (fixed per-shard load)",
        ["hosts", "shards",
         "SocketVIA_completed", "TCP_completed",
         "SocketVIA_ev_per_query", "TCP_ev_per_query"],
    )


def _serve_axis(rates, bursty_rates):
    """Row keys of the load panel: Poisson sweep then bursty repeats."""
    axis = [("poisson", float(r)) for r in rates]
    axis += [("bursty", float(r)) for r in bursty_rates]
    return axis


def _serve_row(arrival: str, rate: float, sv: List[float],
               tcp: List[float]) -> List[Any]:
    return [arrival, rate, sv[0], tcp[0], sv[1], tcp[1],
            sv[2], tcp[2], sv[3], tcp[3], sv[4], tcp[4]]


def serve_points(
    hosts: int = SERVE_HOSTS,
    rates=None,
    bursty_rates=None,
    horizon: float = SERVE_HORIZON,
    seed: int = SERVE_SEED,
) -> PointPlan:
    """The ``serve`` panel as one point per (arrival, rate, protocol)."""
    axis = _serve_axis(rates or SERVE_RATES,
                       SERVE_BURSTY_RATES if bursty_rates is None
                       else bursty_rates)
    points = [
        Point("serve", serve_cell,
              {"protocol": proto, "hosts": int(hosts),
               "rate_per_shard": rate, "horizon": float(horizon),
               "arrival": arrival, "seed": int(seed)})
        for arrival, rate in axis
        for proto in _PROTOCOLS
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _serve_table()
        for i, (arrival, rate) in enumerate(axis):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(*_serve_row(arrival, rate, sv, tcp))
        table.add_note(_SERVE_NOTE)
        return table

    return PointPlan("serve", points, merge)


def serve_scale_points(
    hosts_axis=None,
    rate_per_shard: float = SERVE_SCALE_RATE,
    horizon: float = SERVE_SCALE_HORIZON,
    seed: int = SERVE_SEED,
) -> PointPlan:
    """The ``serve_scale`` panel as one point per (width, protocol)."""
    hosts_axis = [int(h) for h in (hosts_axis or SERVE_SCALE_HOSTS)]
    points = [
        Point("serve_scale", serve_scale_cell,
              {"protocol": proto, "hosts": hosts,
               "rate_per_shard": float(rate_per_shard),
               "horizon": float(horizon), "arrival": "poisson",
               "seed": int(seed)})
        for hosts in hosts_axis
        for proto in _PROTOCOLS
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _scale_table()
        for i, hosts in enumerate(hosts_axis):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(hosts, hosts // 2, sv[0], tcp[0], sv[1], tcp[1])
        table.add_note(_SCALE_NOTE)
        return table

    return PointPlan("serve_scale", points, merge)


# ---------------------------------------------------------------------------
# serve_par — shard-parallel execution and its wall clock
#
# The serving scenario (docs/SERVING.md) is provably partitionable: a
# tenant's queries live wholly on one shard (tenant_index % n_shards),
# every shard's filters run on its own two hosts with per-port switch
# state, per-host RNG streams are keyed by host name, and each shard's
# dispatcher clocks off its own pre-drawn arrival slice
# (ServeApp._dispatch_shard).  A sub-cluster built over a shard span
# therefore reproduces, float-for-float, exactly what the full cluster
# computes for those shards.
#
# run_serve uses that property serially: it simulates each shard on its
# own two-host simulator, one after another (run_shard_span).
# run_serve_parallel fans the same per-shard runs across processes: it
# carves one logical serving run into contiguous shard-span chunks, runs
# each chunk's shards as an ordinary bench Point through a
# SweepExecutor (inheriting its process-pool fan-out, spec shipping and
# content-addressed result cache), and merges the per-chunk results in
# shard order with ServeResult.merged.  The merged result is
# bit-identical to one ServeApp simulating the whole cluster: the same
# ServeResult.digest for the serial run_serve and for --jobs 1, 2 or 4,
# cold or cached (tests/test_sim_partition.py holds it to that).
#
# Chunking is a function of the shard count only, never of jobs, so
# cache entries are shared between runs at different parallelism.
# ---------------------------------------------------------------------------

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


def _span_schedule(config: ServeConfig, lo: int, hi: int) -> OpenLoopSchedule:
    """The arrivals of shards ``[lo, hi)`` alone, as the whole schedule
    has them.

    Every tenant draws from its own named substreams, so drawing only
    the span's tenants yields exactly their arrivals in the whole
    schedule, in the same order, without drawing every other chunk's
    tenants too.  Only ``seq`` and the schedule's ``tenants`` differ:
    they cover the span alone, and nothing downstream reads them.
    """
    specs = config.tenant_specs()
    mine = [i for i in range(len(specs)) if lo <= i % config.n_shards < hi]
    if not mine:
        return OpenLoopSchedule([], config.horizon, (), config.seed)
    span = build_schedule([specs[i] for i in mine], config.horizon, config.seed)
    span.arrivals = [replace(a, tenant_index=mine[a.tenant_index])
                     for a in span.arrivals]
    return span


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

    Replays the span's arrivals of the pre-drawn schedule
    (:func:`_span_schedule`) through
    :func:`~repro.apps.serve.run_shard_span` (one two-host simulator
    per shard, global host names, so name-keyed RNG reproduces the
    full-cluster behaviour) and returns the span's :class:`ServeResult`
    fields as a JSON-canonical dict — the executor's cache and
    process-pool plumbing handle it like any other figure point.
    """
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
    schedule = _span_schedule(config, shard_lo, shard_hi)
    result = run_shard_span(config, schedule, shard_lo, shard_hi)
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


def serve_shard_points(config: ServeConfig) -> List[Point]:
    """One executor :class:`Point` per shard chunk, in shard order."""
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
    executor: Optional[SweepExecutor] = None,
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
    ``run_serve(config)`` and to the whole-cluster ``ServeApp`` — and
    a stats dict with ``points`` / ``cache_hits`` / ``cache_misses`` /
    ``jobs``.
    """
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


#: Cluster width of the full-axis shard-parallel leg (the acceptance
#: bar's 1024-host run).
SERVE_PAR_HOSTS = 1024
#: Worker processes the parallel leg fans out over.
SERVE_PAR_JOBS = 4


def serve_parallel_benchmark(quick: bool = False) -> ExperimentTable:
    """The ``serve_par`` panel: one serving run, three execution modes.

    Times the *same* logical simulation (one SocketVIA serving run at a
    fixed per-shard load) three ways, all compared by
    :meth:`~repro.apps.serve.ServeResult.digest`:

    1. ``single_s`` — the serial :func:`run_serve` in this process, one
       two-host simulator per shard after another;
    2. ``parallel_s`` — :func:`run_serve_parallel` fanning the same per-shard runs, in chunks, over ``--jobs``
       worker processes, cold, populating a throwaway chunk cache;
    3. ``warm_s`` — the same sharded run against that cache (every
       chunk must hit).

    ``points``, ``events`` (chunking is a function of the shard count
    only), ``warm_hits`` and the ``identical`` digest verdict are
    deterministic and gated exactly.  The wall columns and derived
    speedups measure the host — ``speedup_parallel`` is bounded by the
    cores the host grants (see the ``host_cpus`` note) and everything
    wall-shaped is gated warn-only.
    """
    import os
    import shutil
    import tempfile
    import time

    from repro.bench.cache import ResultCache

    config = ServeConfig(
        protocol="socketvia",
        hosts=64 if quick else SERVE_PAR_HOSTS,
        rate_per_shard=SERVE_SCALE_RATE,
        horizon=0.02 if quick else SERVE_SCALE_HORIZON,
        seed=SERVE_SEED,
    )
    t0 = time.perf_counter()
    single = run_serve(config)
    single_s = time.perf_counter() - t0

    cache_root = tempfile.mkdtemp(prefix="repro-servepar-cache-")
    try:
        cold_cache = ResultCache(cache_root)
        with SweepExecutor(jobs=SERVE_PAR_JOBS, cache=cold_cache) as ex:
            t0 = time.perf_counter()
            par, par_stats = run_serve_parallel(config, executor=ex)
            parallel_s = time.perf_counter() - t0

        warm_cache = ResultCache(cache_root)
        with SweepExecutor(jobs=1, cache=warm_cache) as ex:
            t0 = time.perf_counter()
            warm, _ = run_serve_parallel(config, executor=ex)
            warm_s = time.perf_counter() - t0
        warm_hits = warm_cache.hits
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    identical = single.digest() == par.digest() == warm.digest()
    table = ExperimentTable(
        "serve_par",
        "Shard-parallel serving: serial vs --jobs "
        f"{SERVE_PAR_JOBS} vs fully cached (digest-checked)",
        ["hosts", "shards", "points", "events", "single_s",
         "parallel_s", "speedup_parallel", "warm_s", "speedup_cache",
         "warm_hits", "identical"],
    )
    table.add_row(
        config.hosts, config.n_shards, par_stats["points"], par.events,
        round(single_s, 3), round(parallel_s, 3),
        ratio(single_s, parallel_s), round(warm_s, 3),
        ratio(single_s, warm_s), warm_hits,
        "yes" if identical else "no")
    table.add_note(
        f"host_cpus={os.cpu_count()}, parallel leg ran --jobs "
        f"{SERVE_PAR_JOBS}")
    table.add_note(
        "wall-clock columns measure the host (warn-only in compare); "
        "speedup_parallel is bounded by the cores the host grants — "
        "regenerate on a >=4-core host for the parallelism headline")
    return table


# ---------------------------------------------------------------------------
# The serve suite: anchors, claims, and panels
# ---------------------------------------------------------------------------


def _serve_poisson_cell(table: ExperimentTable, rate: float, col: str):
    """Cell lookup on the load panel's Poisson rows by rate."""
    for row in _rows(table):
        if row["arrival"] == "poisson" and row["rate_per_shard"] == rate:
            return row[col]
    return None


def _serve_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    anchors: List[Anchor] = []
    load = tables.get("serve")
    if load is not None:
        rates = [r["rate_per_shard"] for r in _rows(load)
                 if r["arrival"] == "poisson"]
        low, top = min(rates), max(rates)
        anchors += [
            Anchor("serve_sv_top_qps",
                   "SocketVIA sustained throughput at the top Poisson "
                   "load (deterministic)",
                   _serve_poisson_cell(load, top, "SocketVIA_qps"),
                   group="serve", unit="q/s"),
            Anchor("serve_tcp_top_qps",
                   "TCP sustained throughput at the top Poisson load "
                   "(deterministic)",
                   _serve_poisson_cell(load, top, "TCP_qps"),
                   group="serve", unit="q/s"),
            Anchor("serve_sv_p99_light_ms",
                   "SocketVIA p99 latency at the lightest Poisson load "
                   "(deterministic)",
                   _serve_poisson_cell(load, low, "SocketVIA_p99_ms"),
                   group="serve", unit="ms"),
            Anchor("serve_tcp_p99_light_ms",
                   "TCP p99 latency at the lightest Poisson load "
                   "(deterministic)",
                   _serve_poisson_cell(load, low, "TCP_p99_ms"),
                   group="serve", unit="ms"),
            Anchor("serve_tcp_top_drop_rate",
                   "TCP drop rate at the top Poisson load "
                   "(deterministic)",
                   _serve_poisson_cell(load, top, "TCP_drop_rate"),
                   group="serve", unit="frac"),
        ]
    scale = tables.get("serve_scale")
    if scale is not None:
        spreads = []
        for col in ("SocketVIA_ev_per_query", "TCP_ev_per_query"):
            vals = [v for v in scale.column(col) if v]
            if vals:
                spreads.append(max(vals) / min(vals))
        anchors.append(Anchor(
            "serve_scale_max_spread",
            "worst max/min events-per-query spread across cluster "
            "widths, either transport (deterministic; bar is 1.10)",
            max(spreads) if spreads else None,
            group="serve_scale", unit="x"))
    par = tables.get("serve_par")
    if par is not None:
        row = _rows(par)[0]
        # Dotted keys: the comparator gates the wall-clock tails
        # (``*_s`` / ``speedup_*``) warn-only.
        for col in ("single_s", "parallel_s", "warm_s",
                    "speedup_parallel", "speedup_cache"):
            anchors.append(Anchor(
                f"serve_par.{col}",
                f"shard-parallel serving {col} (host wall clock, "
                "warn-only)",
                None if row[col] is None else float(row[col]),
                group="serve_par",
                unit="s" if col.endswith("_s") else "x"))
        anchors += [
            Anchor("serve_par_points",
                   "shard chunks the parallel legs executed "
                   "(deterministic: a function of the shard count only)",
                   float(row["points"]), group="serve_par", unit="points"),
            Anchor("serve_par_events",
                   "kernel events summed over the shard chunks "
                   "(deterministic)",
                   float(row["events"]), group="serve_par", unit="events"),
        ]
    return anchors


def _serve_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    claims: List[Claim] = []
    load = tables.get("serve")
    if load is not None:
        rows = _rows(load)
        poisson = [r for r in rows if r["arrival"] == "poisson"]
        rates = [r["rate_per_shard"] for r in poisson]
        low, top = min(rates), max(rates)
        top_row = next(r for r in poisson if r["rate_per_shard"] == top)
        low_row = next(r for r in poisson if r["rate_per_shard"] == low)
        bursty = [r for r in rows if r["arrival"] == "bursty"]
        by_key = {(r["arrival"], r["rate_per_shard"]): r for r in rows}
        tail_pairs = [
            (by_key[("poisson", r["rate_per_shard"])], r)
            for r in bursty
            if ("poisson", r["rate_per_shard"]) in by_key
        ]
        claims += [
            Claim("serve_open_loop",
                  "both transports face the identical offered schedule "
                  "in every row (the generator is open-loop)",
                  all(r["offered_sv"] == r["offered_tcp"] for r in rows),
                  "serve"),
            Claim("serve_sv_sustains_more",
                  "at the top offered load SocketVIA sustains at least "
                  "TCP's throughput with no higher drop rate",
                  top_row["SocketVIA_qps"] >= top_row["TCP_qps"]
                  and top_row["SocketVIA_drop_rate"]
                  <= top_row["TCP_drop_rate"], "serve"),
            Claim("serve_no_drops_light",
                  "at the lightest load neither transport drops a query",
                  low_row["SocketVIA_drop_rate"] == 0.0
                  and low_row["TCP_drop_rate"] == 0.0, "serve"),
            Claim("serve_tcp_overloads_first",
                  "the load axis crosses TCP's capacity knee: TCP drops "
                  "queries at the top load",
                  top_row["TCP_drop_rate"] > 0.0, "serve"),
            Claim("serve_p99_grows_with_load",
                  "for both transports p99 at the top Poisson load "
                  "exceeds p99 at the lightest (congestion is visible)",
                  top_row["SocketVIA_p99_ms"] > low_row["SocketVIA_p99_ms"]
                  and top_row["TCP_p99_ms"] > low_row["TCP_p99_ms"],
                  "serve"),
            Claim("serve_bursty_worse_tail",
                  "at equal mean rate, bursty (MMPP) arrivals never "
                  "improve the p99 tail of either transport",
                  all(b["SocketVIA_p99_ms"] >= p["SocketVIA_p99_ms"]
                      and b["TCP_p99_ms"] >= p["TCP_p99_ms"]
                      for p, b in tail_pairs) and bool(tail_pairs),
                  "serve"),
        ]
    scale = tables.get("serve_scale")
    if scale is not None:
        flat = True
        for col in ("SocketVIA_ev_per_query", "TCP_ev_per_query"):
            vals = [v for v in scale.column(col) if v]
            if not vals or max(vals) / min(vals) > 1.10:
                flat = False
        claims.append(Claim(
            "serve_scale_flat",
            "events per completed query stay within a 1.10x spread as "
            "the cluster grows (per-event cost independent of width)",
            flat, "serve_scale"))
    par = tables.get("serve_par")
    if par is not None:
        row = _rows(par)[0]
        cpus = _sweep_host_cpus(par)
        claims += [
            Claim("serve_par_digest_identical",
                  "the sharded runs (parallel cold and fully cached) "
                  "merge to the exact serial ServeResult — "
                  "identical sha256 digest over counts and every "
                  "float-exact latency sample",
                  row["identical"] == "yes", "serve_par"),
            Claim("serve_par_warm_hits_full",
                  "the cached rerun hit the chunk cache on every point",
                  row["warm_hits"] == row["points"], "serve_par"),
            Claim("serve_par_3x_when_cores_allow",
                  "--jobs 4 sharded run >= 3x faster than the serial "
                  "run (vacuous on hosts with fewer than 4 CPUs — "
                  "parallelism is core-bound)",
                  (cpus is not None and cpus < 4)
                  or (row["speedup_parallel"] is not None
                      and row["speedup_parallel"] >= 3), "serve_par"),
        ]
    return claims


BENCH_SUITES = (
    BenchSuite("serve", "Open-loop multi-tenant serving: capacity, "
               "SLO latency, and drops vs offered load", (
        # Quick mode shrinks the cluster and horizon — CI's suite-smoke
        # job runs exactly those axes.
        Panel("serve", serve_points,
              quick_kwargs={"hosts": 64, "rates": [200.0, 800.0],
                            "bursty_rates": [800.0], "horizon": 0.02}),
        # Quick widths start at 32 hosts: narrower clusters amortize
        # the per-shard setup over too few queries for the flatness
        # claim to be meaningful at a short horizon.
        Panel("serve_scale", serve_scale_points,
              quick_kwargs={"hosts_axis": [32, 64], "horizon": 0.03}),
        Panel("serve_par", run=serve_parallel_benchmark),
    ), _serve_anchors, _serve_claims),
)
