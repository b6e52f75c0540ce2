"""Parallel point-sweep executor for the figure experiments.

Every paper figure is a sweep of *independent* simulation points —
message sizes, rate/latency guarantees, query mixes, slowdown factors.
``repro.bench.figures`` decomposes each figure into a list of pure
:class:`Point` work items plus a deterministic merge
(:class:`PointPlan`); :meth:`PointPlan.run` executes one in this
process, and this module's :class:`SweepExecutor` — the one cached and
parallel path — executes points through a pluggable backend:

* ``serial`` (``jobs=1``) — in the current process, the default;
* ``process`` (``jobs>1``) — a ``concurrent.futures.ProcessPoolExecutor``
  fan-out, one figure point per task.

Both backends run every point under its own tracer/aggregator (the
worker function :func:`execute_point` is shared), and results are
merged **in point order, never completion order**, so the resulting
table — and the per-kind trace roll-up — is bit-identical no matter
how many workers ran or which finished first.

A :class:`~repro.bench.cache.ResultCache` can be layered in front:
points whose content-addressed key is already stored return instantly
with the exact value *and* execution profile (events, trace kinds) of
the original run, so a fully-cached rerun reproduces the cold record
bit-for-bit at near-zero cost.

``jobs`` resolution: explicit argument > ``REPRO_JOBS`` env > 1;
``jobs=0`` means "one worker per CPU".

:func:`sweep_benchmark` is the meta-panel of the ``sweep`` suite
declared here (``python -m repro bench run sweep``): it times the
fig04+fig08 sweeps serial, parallel, and fully cached, and records the
speedups (host wall-clock, gated warn-only by the comparator).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.bench.cache import ResultCache, RunContext
from repro.bench.records import ExperimentTable, ratio
from repro.bench.suites import (
    Anchor,
    BenchSuite,
    Claim,
    Panel,
    _cell,
    _sweep_host_cpus,
    get_suite,
)

__all__ = [
    "Point",
    "PointResult",
    "PointPlan",
    "SweepExecutor",
    "execute_point",
    "resolve_jobs",
    "merge_kinds",
    "layers_from_kinds",
    "sweep_benchmark",
    "SWEEP_SUITES",
    "SWEEP_JOBS",
    "BENCH_SUITES",
]


@dataclass(frozen=True)
class Point:
    """One pure unit of sweep work: ``fn(**params)``.

    ``fn`` is a module-level function, so it pickles by reference into
    pool workers.  ``params`` must be JSON-canonical (scalars, lists,
    dicts) — they feed both the pickled process-pool task and the
    content-addressed cache key.
    """

    figure: str  # panel id the point belongs to ("4a", "8b", ...)
    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def fn_name(self) -> str:
        """``fn``'s import path: the ``fn`` field of the cache key."""
        return f"{self.fn.__module__}.{self.fn.__qualname__}"


@dataclass
class PointResult:
    """A point's value plus its deterministic execution profile."""

    value: Any
    events: int                          # simulation events the point consumed
    kinds: Dict[str, Dict[str, float]]   # per-trace-kind {"events", "time_s"}
    cached: bool = False


@dataclass
class PointPlan:
    """A figure decomposed: the points and how to merge their values.

    ``merge`` receives the point values **in plan order**, so the table
    is the same whatever ran the points — the parametrized determinism
    tests in ``tests/test_bench_executor.py`` hold the process pool and
    the cache to :meth:`run`'s table, row for row.
    """

    figure: str
    points: List[Point]
    merge: Callable[[List[Any]], ExperimentTable]

    def run(self) -> ExperimentTable:
        """Call every point's function in this process, in plan order,
        under the ambient fault plan and tracer; then merge."""
        return self.merge([point.fn(**point.params) for point in self.points])


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit > ``REPRO_JOBS`` env > 1 (0 = CPU count)."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "")
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def execute_point(spec: Tuple) -> Dict[str, Any]:
    """Run one point under its own tracer; the shared worker function.

    Executed in-process (serial backend) and in pool workers (process
    backend) alike, so both produce the same per-point profile.  The
    value is canonicalized through a JSON round-trip, making a fresh
    result bit-identical to one later read back from the cache.

    *spec* is ``(figure, fn, params, context)``: *context* is the
    submitting side's :class:`~repro.bench.cache.RunContext` as a dict,
    reinstalled here so pool workers — separate processes that never
    saw the parent's ambient state — run under the same fault plan as
    the serial path, and as the cache key records.
    """
    from repro.bench.runner import TraceAggregator
    from repro.sim.core import global_events_processed
    from repro.sim.trace import Tracer, tracing

    figure, fn, params, context = spec
    agg = TraceAggregator()
    tracer = Tracer()
    tracer.subscribe("", agg)
    before = global_events_processed()
    with RunContext.from_dict(context).running(), \
            tracing(tracer, record=False):
        value = fn(**params)
    return {
        "value": json.loads(json.dumps(value)),
        "events": global_events_processed() - before,
        "kinds": agg.kinds(),
    }


def merge_kinds(
    parts: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Sum per-kind profiles across points, in iteration order.

    Event counts are integral (exact under any grouping); ``time_s``
    floats are accumulated in the deterministic plan order, so serial
    and parallel runs sum in the same sequence and agree bitwise.
    """
    events: Dict[str, int] = {}
    times: Dict[str, float] = {}
    for part in parts:
        for kind, stats in part.items():
            events[kind] = events.get(kind, 0) + int(stats["events"])
            times[kind] = times.get(kind, 0.0) + float(stats["time_s"])
    return {kind: {"events": events[kind], "time_s": times[kind]}
            for kind in sorted(events)}


def layers_from_kinds(
    kinds: Dict[str, Dict[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Roll a per-kind profile up to trace layers (see ``sim.trace``)."""
    from repro.sim.trace import layer_of

    out: Dict[str, Dict[str, float]] = {}
    for kind, stats in kinds.items():
        bucket = out.setdefault(layer_of(kind), {"events": 0, "time_s": 0.0})
        bucket["events"] += stats["events"]
        bucket["time_s"] += stats["time_s"]
    return out


class SweepExecutor:
    """Executes point plans with a shared worker pool and result cache.

    One instance per "session" — a ``bench run`` invocation, the pytest
    benchmark session, a sweep-benchmark configuration — so every plan
    executed through it shares the (lazily created) process pool and
    the cache hit/miss accounting.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self._pool: Optional[ProcessPoolExecutor] = None

    @classmethod
    def from_env(cls) -> "SweepExecutor":
        """Executor configured purely from the environment:
        ``REPRO_JOBS`` workers, caching on unless ``REPRO_BENCH_NO_CACHE``."""
        disabled = os.environ.get("REPRO_BENCH_NO_CACHE", "") not in ("", "0")
        return cls(jobs=None, cache=None if disabled else ResultCache())

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def run(self, points: List[Point], progress=None) -> List[PointResult]:
        """Execute *points*; results come back in input order.

        Cache lookups happen first; only misses are dispatched (to the
        pool when ``jobs>1`` and more than one point misses).
        """
        results: List[Optional[PointResult]] = [None] * len(points)
        keys: Dict[int, str] = {}
        pending: List[int] = []
        for i, point in enumerate(points):
            if self.cache is not None:
                key = self.cache.key(point.figure, point.fn_name,
                                     point.params)
                payload = self.cache.get(key)
                if payload is not None:
                    results[i] = PointResult(
                        payload["value"], int(payload["events"]),
                        payload["kinds"], cached=True)
                    continue
                keys[i] = key
            pending.append(i)
        if progress is not None and points:
            progress(f"sweep {points[0].figure}: {len(points)} point(s), "
                     f"{len(points) - len(pending)} cached, "
                     f"{len(pending)} to run (jobs={self.jobs})")
        if pending:
            context = RunContext.current().to_dict()
            specs = [(points[i].figure, points[i].fn, dict(points[i].params),
                      context)
                     for i in pending]
            if self.jobs > 1 and len(pending) > 1:
                outs = list(self._ensure_pool().map(execute_point, specs))
            else:
                outs = [execute_point(spec) for spec in specs]
            for i, out in zip(pending, outs):
                results[i] = PointResult(
                    out["value"], out["events"], out["kinds"], cached=False)
                if self.cache is not None:
                    point = points[i]
                    self.cache.put(keys[i], point.figure, point.fn_name,
                                   dict(point.params), out["value"],
                                   out["events"], out["kinds"])
        return results  # type: ignore[return-value]

    def table(self, plan: PointPlan, progress=None) -> ExperimentTable:
        """Execute a plan and merge it back into its figure table."""
        results = self.run(plan.points, progress=progress)
        return plan.merge([r.value for r in results])

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The sweep meta-benchmark (``python -m repro bench run sweep``)
# ---------------------------------------------------------------------------

#: Suites the sweep benchmark times (the two heaviest figure sweeps).
SWEEP_SUITES = ("fig04", "fig08")

#: Worker count for the parallel leg.
SWEEP_JOBS = 4


def _run_plans(plans, executor) -> Tuple[List[ExperimentTable], int, int]:
    """Run every plan through *executor*; (tables, points, events)."""
    tables, n_points, events = [], 0, 0
    for plan in plans:
        results = executor.run(plan.points)
        tables.append(plan.merge([r.value for r in results]))
        n_points += len(plan.points)
        events += sum(r.events for r in results)
    return tables, n_points, events


def sweep_benchmark(quick: bool = False, jobs: int = SWEEP_JOBS) -> ExperimentTable:
    """Time the fig04+fig08 sweeps serial, parallel, and fully cached.

    Three legs per figure suite, all over the same point decomposition:

    1. ``serial_s`` — ``jobs=1``, cold, populating a throwaway cache;
    2. ``parallel_s`` — ``jobs=4``, cold, no cache;
    3. ``warm_s`` — ``jobs=1`` rerun against the leg-1 cache (every
       point hits).

    Wall-clock columns and the derived speedups measure the *host* (a
    single-core host bounds ``speedup_parallel`` at ~1x — see the
    ``host_cpus`` note) and are gated warn-only; ``points``, ``events``,
    ``warm_hits`` and the ``identical`` verdict are deterministic.
    """
    import shutil
    import tempfile
    import time

    table = ExperimentTable(
        "sweep",
        "Point-sweep executor wall clock: serial vs --jobs "
        f"{jobs} vs fully cached",
        ["sweep", "points", "events", "serial_s", "parallel_s",
         "speedup_parallel", "warm_s", "speedup_cache", "warm_hits",
         "identical"],
    )
    tot_points = tot_events = tot_hits = 0
    tot_serial = tot_par = tot_warm = 0.0
    all_identical = True
    for bench_id in SWEEP_SUITES:
        plans = [panel.plan(quick) for panel in get_suite(bench_id).panels]

        cache_root = tempfile.mkdtemp(prefix="repro-sweep-cache-")
        try:
            cold_cache = ResultCache(cache_root)
            with SweepExecutor(jobs=1, cache=cold_cache) as ex:
                t0 = time.perf_counter()
                tables_serial, n_points, events = _run_plans(plans, ex)
                serial_s = time.perf_counter() - t0

            with SweepExecutor(jobs=jobs, cache=None) as ex:
                t0 = time.perf_counter()
                tables_par, _, _ = _run_plans(plans, ex)
                parallel_s = time.perf_counter() - t0

            warm_cache = ResultCache(cache_root)
            with SweepExecutor(jobs=1, cache=warm_cache) as ex:
                t0 = time.perf_counter()
                tables_warm, _, _ = _run_plans(plans, ex)
                warm_s = time.perf_counter() - t0
            warm_hits = warm_cache.hits
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)

        identical = (
            [t.to_dict() for t in tables_serial]
            == [t.to_dict() for t in tables_par]
            == [t.to_dict() for t in tables_warm])
        all_identical = all_identical and identical
        table.add_row(
            bench_id, n_points, events, round(serial_s, 3),
            round(parallel_s, 3), ratio(serial_s, parallel_s),
            round(warm_s, 3), ratio(serial_s, warm_s), warm_hits,
            "yes" if identical else "no")
        tot_points += n_points
        tot_events += events
        tot_hits += warm_hits
        tot_serial += serial_s
        tot_par += parallel_s
        tot_warm += warm_s
    table.add_row(
        "TOTAL", tot_points, tot_events, round(tot_serial, 3),
        round(tot_par, 3), ratio(tot_serial, tot_par),
        round(tot_warm, 3), ratio(tot_serial, tot_warm), tot_hits,
        "yes" if all_identical else "no")
    table.add_note(f"host_cpus={os.cpu_count()}, parallel leg ran --jobs {jobs}")
    table.add_note(
        "wall-clock columns measure the host (warn-only in compare); "
        "speedup_parallel is bounded by the cores the host grants — "
        "regenerate on a >=4-core host for the parallelism headline")
    return table


def _sweep_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    table = tables.get("sweep")
    if table is None:
        return []
    anchors: List[Anchor] = []
    for sweep_id in table.column("sweep"):
        # Dotted keys: the comparator treats the tail after the last
        # "." as the metric name, so every *_s / speedup_* anchor lands
        # in its wall-metric (warn-only) set.
        for col in ("serial_s", "parallel_s", "warm_s",
                    "speedup_parallel", "speedup_cache"):
            value = _cell(table, "sweep", sweep_id, col)
            anchors.append(Anchor(
                f"{sweep_id}.{col}",
                f"{sweep_id} sweep {col} (host wall clock, warn-only)",
                None if value is None else float(value),
                group="sweep", unit="s" if col.endswith("_s") else "x"))
    points = _cell(table, "sweep", "TOTAL", "points")
    events = _cell(table, "sweep", "TOTAL", "events")
    anchors += [
        Anchor("sweep_total_points",
               "points executed across the fig04+fig08 sweeps (deterministic)",
               None if points is None else float(points),
               group="sweep", unit="points"),
        Anchor("sweep_total_events",
               "simulation events those points consumed (deterministic)",
               None if events is None else float(events),
               group="sweep", unit="events"),
    ]
    return anchors


def _sweep_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("sweep")
    if table is None:
        return []
    identical = all(v == "yes" for v in table.column("identical"))
    hits = _cell(table, "sweep", "TOTAL", "warm_hits")
    points = _cell(table, "sweep", "TOTAL", "points")
    warm_speedup = _cell(table, "sweep", "TOTAL", "speedup_cache")
    par_speedup = _cell(table, "sweep", "TOTAL", "speedup_parallel")
    cpus = _sweep_host_cpus(table)
    return [
        Claim("sweeps_bit_identical",
              "parallel and fully-cached tables bit-identical to serial, "
              "every sweep", identical, "sweep"),
        Claim("warm_hits_full",
              "fully-cached rerun hit the cache on every point",
              hits is not None and hits == points, "sweep"),
        Claim("warm_rerun_10x",
              "fully-cached rerun >= 10x faster than the cold serial run",
              warm_speedup is not None and warm_speedup >= 10, "sweep"),
        Claim("parallel_2x_when_cores_allow",
              "--jobs 4 >= 2x faster than serial (vacuous on hosts with "
              "fewer than 4 CPUs — parallelism is core-bound)",
              (cpus is not None and cpus < 4)
              or (par_speedup is not None and par_speedup >= 2), "sweep"),
    ]


#: The ``sweep`` suite (not a paper figure): gates the parallel/cached
#: execution path every figure sweep runs on.
BENCH_SUITES = (
    BenchSuite("sweep", "Point-sweep executor: serial vs parallel vs "
               "cached wall clock",
               (Panel("sweep", run=sweep_benchmark),),
               _sweep_anchors, _sweep_claims),
)
