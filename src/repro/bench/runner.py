"""Execute benchmark suites and persist their records.

:func:`run_experiment` runs every panel of one suite under a live
trace subscription (the permanent trace points threaded through the
stack in PR 1), aggregates per-kind / per-layer event counts and
time-in-layer on the fly — no ring buffer, so arbitrarily long runs
cost O(1) memory — extracts the suite's anchors and claims, and wraps
everything in a schema-versioned :class:`~repro.bench.schema.BenchRecord`.

The drivers themselves are deterministic, so two runs of the same
experiment at the same tree produce identical records except for the
``wall_time_s`` / ``git_sha`` provenance fields (``git_sha`` is
ignored by the comparator; wall-clock metrics are gated warn-only) —
including ``events_processed``, the deterministic cost counter
recorded since schema version 2.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, Iterable, List, Optional

from repro.bench.records import ExperimentTable
from repro.bench.schema import SCHEMA_VERSION, BenchRecord
from repro.bench.suites import BenchSuite, get_suite
from repro.sim.core import global_events_processed
from repro.sim.stats import Summary
from repro.sim.trace import TraceRecord, Tracer, layer_of, tracing

__all__ = ["TraceAggregator", "run_experiment", "git_sha"]

#: Trace fields that carry an instrumented duration (seconds).  A
#: record contributes the first one it has to its kind's time bucket:
#: ``cost`` (kernel charges), ``elapsed`` (DataCutter units of work),
#: ``latency`` (socket receive completions).
_DURATION_FIELDS = ("cost", "elapsed", "latency")


class TraceAggregator:
    """Streaming per-kind counter: events and summed instrumented time.

    Subscribed to a :class:`~repro.sim.trace.Tracer` with the match-all
    kind (``""``), so it sees every record without the tracer's ring
    buffer (bounded memory regardless of run length).
    """

    def __init__(self) -> None:
        self._events: Dict[str, int] = {}
        self._times: Dict[str, List[float]] = {}

    def __call__(self, rec: TraceRecord) -> None:
        self._events[rec.kind] = self._events.get(rec.kind, 0) + 1
        for f in _DURATION_FIELDS:
            value = rec.fields.get(f)
            if value is not None:
                self._times.setdefault(rec.kind, []).append(float(value))
                break

    def kinds(self) -> Dict[str, Dict[str, float]]:
        """Per-kind ``{"events": n, "time_s": t}`` (t = 0 when untimed)."""
        out = {}
        for kind in sorted(self._events):
            s = Summary.of(self._times.get(kind, ()))
            out[kind] = {"events": self._events[kind],
                         "time_s": s.total}
        return out

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer aggregate of :meth:`kinds` via the trace catalog."""
        out: Dict[str, Dict[str, float]] = {}
        for kind, stats in self.kinds().items():
            bucket = out.setdefault(layer_of(kind),
                                    {"events": 0, "time_s": 0.0})
            bucket["events"] += stats["events"]
            bucket["time_s"] += stats["time_s"]
        return out


def git_sha() -> str:
    """Short sha of HEAD, or ``"unknown"`` outside a git checkout.

    Resolves against the installed package's directory rather than the
    caller's CWD, captures stderr (no "fatal: not a git repository"
    noise), and swallows every way the probe can fail — missing git
    binary, timeout, deleted working directory — so callers never need
    a try/except.  Also feeds the sweep cache's code fingerprint
    (:func:`repro.bench.cache.code_fingerprint`).
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def _write_profile(profiler, directory: str, bench_id: str,
                   panel: str) -> str:
    """Dump one panel's cProfile as top-20 cumulative lines.

    Written next to the run records (``benchmarks/results/`` is
    gitignored, so profiles never end up committed).  Only the driver
    process is profiled: meta panels and in-process point sweeps are
    covered fully, while work farmed to pool workers shows up as time
    inside the executor's result iteration.
    """
    import io
    import pstats

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"PROFILE_{bench_id}_{panel}.txt")
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(20)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())
    return path


def run_experiment(
    bench_id: str,
    quick: bool = False,
    panels: Optional[Iterable[str]] = None,
    progress=None,
    jobs: Optional[int] = None,
    cache=None,
    executor=None,
    profile_dir: Optional[str] = None,
) -> BenchRecord:
    """Run one suite and return its :class:`BenchRecord`.

    Sweep panels execute their point plan
    (:meth:`repro.bench.suites.Panel.plan`) on a
    :class:`~repro.bench.executor.SweepExecutor` — parallel when
    ``jobs > 1``, memoized when a cache is attached — with the
    per-point trace profiles merged back in deterministic plan order,
    so the record is bit-identical whatever ran the points.  Meta
    panels with no plan (``kernel``, ``sweep``, ``serve_par``) run
    inline and serial: they time the host.

    Parameters
    ----------
    bench_id:
        Suite id (``fig04``; ``4`` and ``fig4`` also resolve).
    quick:
        Reduced axes — the CI smoke variant.  Recorded in the output so
        a quick run is never compared against a full baseline silently.
    panels:
        Subset of the suite's panels to run (default: all of them).
    progress:
        Optional ``fn(message: str)`` called before each panel.
    jobs:
        Point-sweep worker count (default: ``REPRO_JOBS`` env, else 1).
    cache:
        Optional :class:`~repro.bench.cache.ResultCache` for point
        results (default: no caching at this layer; the CLI and the
        pytest session attach one).
    executor:
        Reuse an existing :class:`~repro.bench.executor.SweepExecutor`
        (its pool and cache) instead of building one from ``jobs`` /
        ``cache``; the caller keeps ownership and must close it.
    profile_dir:
        When given, cProfile each panel in the driver process and write
        ``PROFILE_<exp>_<panel>.txt`` (top 20 cumulative lines) there.
    """
    suite: BenchSuite = get_suite(bench_id)
    by_id = {panel.panel_id: panel for panel in suite.panels}
    selected = tuple(panels) if panels is not None else suite.panel_ids
    unknown = [p for p in selected if p not in by_id]
    if unknown:
        raise KeyError(
            f"{suite.bench_id} has no panels {unknown}; have {list(by_id)}")

    from repro.bench.executor import (SweepExecutor, layers_from_kinds,
                                      merge_kinds)

    own_executor = executor is None
    if own_executor:
        executor = SweepExecutor(jobs=jobs, cache=cache)

    tables: Dict[str, ExperimentTable] = {}
    kind_parts: List[Dict[str, Dict[str, float]]] = []
    events = 0
    start = time.perf_counter()
    try:
        for panel in selected:
            if progress is not None:
                progress(f"running {suite.bench_id} panel {panel} "
                         f"({'quick' if quick else 'full'} axes)")
            profiler = None
            if profile_dir is not None:
                import cProfile

                profiler = cProfile.Profile()
                profiler.enable()
            try:
                plan = by_id[panel].plan(quick)
                if plan is None:
                    agg = TraceAggregator()
                    tracer = Tracer()
                    tracer.subscribe("", agg)
                    before = global_events_processed()
                    with tracing(tracer, record=False):
                        tables[panel] = by_id[panel].run(quick)
                    events += global_events_processed() - before
                    kind_parts.append(agg.kinds())
                else:
                    results = executor.run(plan.points, progress=progress)
                    tables[panel] = plan.merge([r.value for r in results])
                    events += sum(r.events for r in results)
                    kind_parts.extend(r.kinds for r in results)
            finally:
                if profiler is not None:
                    profiler.disable()
                    path = _write_profile(
                        profiler, profile_dir, suite.bench_id, panel)
                    if progress is not None:
                        progress(f"profile: wrote {path}")
    finally:
        if own_executor:
            executor.close()
    wall = time.perf_counter() - start

    kinds = merge_kinds(kind_parts)
    return BenchRecord(
        experiment=suite.bench_id,
        title=suite.title,
        tables={p: t.to_dict() for p, t in tables.items()},
        anchors=[a.to_dict() for a in suite.anchors(tables)],
        claims=[c.to_dict() for c in suite.claims(tables)],
        layers=layers_from_kinds(kinds),
        kinds=kinds,
        git_sha=git_sha(),
        seed=None,
        quick=quick,
        wall_time_s=round(wall, 3),
        events_processed=events,
        schema_version=SCHEMA_VERSION,
    )
