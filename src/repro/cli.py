"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure <id>``
    Regenerate one panel — a paper figure (4a, 4b, 7a, 7b, 8a, 8b, 9a,
    9b, 10, 11) or any other panel ``list`` prints — and print its
    table.  ``--quick`` shrinks the axes.
``microbench``
    Both Figure-4 panels (alias for ``figure 4a`` + ``figure 4b``).
``calibration``
    Show the calibrated cost-model parameters next to the paper's
    targets.
``trace <id>``
    Run a panel (quick axes by default) with cross-layer trace
    recording on and print per-kind counts, the layers covered, and a
    sample of records.
``serve``
    Run one open-loop serving scenario (docs/SERVING.md) and print its
    capacity report: offered/admitted/dropped counts, sustained
    throughput, exact p50/p99 latency per query kind, and admission
    queue stats.  The full sweep is ``bench run serve``.
``tails``
    Run one replicated-dispatch scenario (docs/TAILS.md) and print its
    tail-latency report: exact p50/p99/p999, the replica conservation
    ledger (dispatched/completed/retracted), hedge counts, and
    executed work.  The full sweep is ``bench run tails``.
``bench run|compare|report|list``
    The benchmark harness: run experiment suites into schema-versioned
    ``BENCH_<experiment>.json`` records (``--jobs N`` fans the figure
    sweeps out over a process pool; results are memoized in the
    content-addressed cache unless ``--no-cache``), gate them against
    the committed baselines, and regenerate the experiment docs.
    ``bench run`` exits 1 when a claim fails, and then does not update
    that suite's baseline.
``bench cache stats|clear``
    Inspect or empty the content-addressed point-result cache under
    ``benchmarks/cache/``.
``list``
    List the available panel ids.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro._version import __version__

__all__ = ["main"]


def _panel(panel_id: str):
    """The declared panel, or None after reporting an unknown id."""
    from repro.bench.suites import get_panel

    try:
        return get_panel(panel_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def cmd_figure(args: argparse.Namespace) -> int:
    panel = _panel(args.id)
    if panel is None:
        return 2
    table = panel.table(args.quick)
    print(table.render())
    if args.save:
        path = table.save(args.save)
        print(f"\nsaved to {path}")
    return 0


def cmd_microbench(args: argparse.Namespace) -> int:
    for fig_id in ("4a", "4b"):
        args.id = fig_id
        rc = cmd_figure(args)
        if rc:
            return rc
        print()
    return 0


def cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.net import MODELS, PAPER_MICROBENCH

    print("Calibrated transport models (times in us, gaps in ns/B):\n")
    header = (f"{'model':<12}{'lat(4B)':>9}{'peak Mbps':>11}{'o_msg':>8}"
              f"{'o_seg':>8}{'g_wire':>8}{'mtu':>8}")
    print(header)
    print("-" * len(header))
    for name, m in sorted(MODELS.items()):
        print(f"{name:<12}{m.des_message_latency(4) * 1e6:>9.2f}"
              f"{m.peak_bandwidth_mbps:>11.1f}"
              f"{m.o_send_msg * 1e6:>8.2f}{m.o_send_seg * 1e6:>8.2f}"
              f"{m.g_wire * 1e9:>8.2f}{m.mtu:>8}")
    print("\nPaper targets:", PAPER_MICROBENCH)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.sim.trace import layer_of as _trace_layer
    from repro.sim.trace import tracing

    panel = _panel(args.id)
    if panel is None:
        return 2
    with tracing() as tracer:
        table = panel.table(not args.full)
    records = list(tracer.records)
    if args.kind:
        records = [r for r in records
                   if r.kind == args.kind
                   or r.kind.startswith(args.kind + ".")]
    print(table.render())

    counts = Counter(r.kind for r in records)
    layers = sorted({_trace_layer(k) for k in counts})
    print(f"\ntrace: {len(records)} records"
          f"{' (ring-buffer truncated)' if len(tracer.records) == tracer.records.maxlen else ''}"
          f" across {len(counts)} kinds, layers: {', '.join(layers) or 'none'}")
    for kind in sorted(counts):
        print(f"  {kind:<18} {counts[kind]:>8}  [{_trace_layer(kind)}]")
    if args.limit:
        shown = records[-args.limit:]
        print(f"\nlast {len(shown)} records:")
        for rec in shown:
            print(f"  {rec!r}")
    if args.out:
        import json

        with open(args.out, "w") as fh:
            for rec in records:
                fh.write(json.dumps(
                    {"time": rec.time, "kind": rec.kind, **rec.fields},
                    default=str,
                ) + "\n")
        print(f"\nwrote {len(records)} records to {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.apps.serve import ServeConfig, run_serve
    from repro.apps.workload import QUERY_KINDS

    config = ServeConfig(
        protocol=args.protocol,
        hosts=args.hosts,
        rate_per_shard=args.rate,
        horizon=args.horizon,
        queue_capacity=args.capacity,
        arrival=args.arrival,
        seed=args.seed,
    )
    stats = None
    if args.jobs is None:
        result = run_serve(config)
    else:
        from repro.bench.cache import ResultCache
        from repro.bench.executor import SweepExecutor
        from repro.bench.servebench import run_serve_parallel

        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        with SweepExecutor(jobs=args.jobs, cache=cache) as executor:
            result, stats = run_serve_parallel(config, executor=executor)
    print(f"serve: {args.protocol} on {args.hosts} hosts "
          f"({config.n_shards} shards), {args.arrival} arrivals at "
          f"{args.rate:g} q/s/shard over {args.horizon:g} s")
    print(f"  offered   : {result.offered}")
    print(f"  admitted  : {result.admitted}")
    print(f"  dropped   : {result.dropped} "
          f"(drop rate {result.drop_rate:.3f})")
    print(f"  completed : {result.completed}")
    if result.completed:
        print(f"  throughput: {result.throughput:,.0f} q/s sustained")
        print(f"  latency   : p50 {result.p50 * 1e3:.3f} ms, "
              f"p99 {result.p99 * 1e3:.3f} ms")
        for kind in QUERY_KINDS:
            if result.latencies[kind]:
                print(f"    {kind:<9}: p50 "
                      f"{result.latency_p(50, kind) * 1e3:.3f} ms, "
                      f"p99 {result.latency_p(99, kind) * 1e3:.3f} ms "
                      f"({len(result.latencies[kind])} queries)")
    else:
        print("  no query completed: no throughput, latency or "
              "events-per-query to report")
    per_query = (f", {result.events_per_query:.1f} kernel events/query"
                 if result.completed else "")
    print(f"  queueing  : high water {result.high_water}/{args.capacity}"
          f"{per_query}")
    print(f"  digest    : {result.digest()}")
    if stats is not None:
        print(f"  sharding  : {stats['points']} chunk(s) over "
              f"{stats['jobs']} worker(s)")
        print(f"  cache: {stats['cache_hits']} hit(s), "
              f"{stats['cache_misses']} miss(es)")
    return 0


def cmd_tails(args: argparse.Namespace) -> int:
    from repro.apps.tails import TailsConfig, run_tails
    from repro.faults.plan import injecting
    from repro.faults.presets import get_preset

    try:
        plan = get_preset(args.plan)
    except Exception as exc:
        print(str(exc), file=sys.stderr)
        return 2
    config = TailsConfig(
        protocol=args.protocol,
        k=args.k,
        cancel=args.cancel,
        hedge_us=args.hedge_us,
        n_workers=args.workers,
        n_queries=args.queries,
        rate=args.rate,
        seed=args.seed,
    )
    with injecting(plan):
        result = run_tails(config)
    policy = result.policy
    print(f"tails: {args.protocol} on {args.workers} workers, "
          f"{args.queries} Poisson queries at {args.rate:g} q/s, "
          f"plan={args.plan}")
    print(f"  policy    : k={policy.k} cancel={policy.cancel} "
          f"hedge_us={policy.hedge_us:g}")
    print(f"  latency   : p50 {result.latency_percentile(50) * 1e3:.3f} ms, "
          f"p99 {result.latency_percentile(99) * 1e3:.3f} ms, "
          f"p999 {result.latency_percentile(99.9) * 1e3:.3f} ms")
    print(f"  replicas  : dispatched {result.dispatched}, "
          f"completed {result.completed}, retracted {result.retracted} "
          f"(before start {result.retracted_before_start}, "
          f"mid-compute {result.retracted_started})")
    print(f"  hedges    : sent {result.hedges_sent}, "
          f"skipped {result.hedges_skipped}, "
          f"clamped {result.replication_clamped}")
    print(f"  work      : {result.work_executed * 1e3:.3f} ms executed "
          f"core-time, makespan {result.elapsed * 1e3:.3f} ms")
    print("  conserved : completed == dispatched - retracted (exact)")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.bench.suites import get_suite, suite_names

    panels = [p for name in suite_names() for p in get_suite(name).panels]
    print("figures (python -m repro figure <id>):")
    for panel in sorted(panels, key=lambda p: p.panel_id):
        print(f"  {panel.panel_id}")
    return 0


# ---------------------------------------------------------------------------
# bench: the measurement harness
# ---------------------------------------------------------------------------


def _resolve_experiments(names) -> list:
    """Map CLI experiment ids to canonical suite ids (exit code 2 on
    unknown names is handled by the caller catching KeyError)."""
    from repro.bench.suites import get_suite

    return [get_suite(n).bench_id for n in names]


def cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import baselines, runner
    from repro.bench.cache import ResultCache
    from repro.bench.executor import SweepExecutor

    try:
        experiments = _resolve_experiments(args.experiments)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    out_dir = baselines.results_dir(args.results)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    failed = []  # suites with a failed claim
    with SweepExecutor(jobs=args.jobs, cache=cache) as executor:
        for exp in experiments:
            record = runner.run_experiment(
                exp, quick=args.quick, progress=print, executor=executor,
                profile_dir=out_dir if args.profile else None)
            for panel in sorted(record.tables):
                print()
                print(record.table(panel).render())
            bad_anchors = [a for a in record.anchors if not a["ok"]]
            bad_claims = [c for c in record.claims if not c["passed"]]
            print(f"\n{exp}: {len(record.anchors)} anchors "
                  f"({len(bad_anchors)} outside paper tolerance), "
                  f"{len(record.claims)} claims "
                  f"({len(bad_claims)} failed), "
                  f"{sum(s['events'] for s in record.layers.values())} trace "
                  f"events in {record.wall_time_s:.1f} s "
                  f"(jobs={executor.jobs})")
            for a in bad_anchors:
                print(f"  ANCHOR MISS {a['key']}: paper {a['paper']}, "
                      f"measured {a['measured']}")
            for c in bad_claims:
                print(f"  CLAIM FAILED {c['key']}: {c['description']}")
            path = baselines.store_record(record, out_dir)
            print(f"wrote {path}")
            if bad_claims:
                failed.append(exp)
                if args.update_baseline:
                    print(f"baseline for {exp} not updated: a claim failed")
            elif args.update_baseline:
                bpath = baselines.store_record(
                    record, baselines.baseline_dir(args.baselines))
                print(f"updated baseline {bpath}")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"in {cache.directory}")
    if failed:
        print(f"failed claims in {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_cache(args: argparse.Namespace) -> int:
    import json

    from repro.bench.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.directory}")
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps({k: stats[k] for k in
                          ("directory", "entries", "total_bytes", "max_bytes")}))
    else:
        print(f"directory : {stats['directory']}")
        print(f"entries   : {stats['entries']}")
        print(f"size      : {stats['total_bytes']} / {stats['max_bytes']} bytes")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.comparator import Tolerance, compare_dirs

    try:
        experiments = _resolve_experiments(args.experiments) or None
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    tol = Tolerance(rel_warn=args.rel_warn, rel_fail=args.rel_fail)
    comparisons = compare_dirs(args.results, args.baselines, experiments, tol)
    if not comparisons:
        print("nothing to compare: run `python -m repro bench run <experiment>` "
              "first", file=sys.stderr)
        return 2
    worst = "pass"
    for comp in comparisons:
        print(comp.render(verbose=args.verbose))
        if comp.status == "fail":
            worst = "fail"
        elif comp.status == "warn" and worst == "pass":
            worst = "warn"
    print(f"\nbench compare: {worst.upper()} "
          f"({len(comparisons)} experiment(s), "
          f"rel_warn={tol.rel_warn}, rel_fail={tol.rel_fail})")
    return 1 if worst == "fail" else 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    import os

    from repro.bench import baselines, report

    directory = baselines.baseline_dir(args.baselines)
    try:
        records = baselines.load_all(directory)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not records:
        print(f"no BENCH_*.json records in {directory!r}", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(report.generate_document(records))
    print(f"wrote {args.out} ({len(records)} experiment(s))")
    if args.experiments_md and os.path.exists(args.experiments_md):
        with open(args.experiments_md) as fh:
            text = fh.read()
        new_text, updated, unmatched = report.update_marked_file(text, records)
        if new_text != text:
            with open(args.experiments_md, "w") as fh:
                fh.write(new_text)
        print(f"{args.experiments_md}: "
              f"{len(updated)} marked block(s) regenerated"
              + (f", {len(unmatched)} without a committed record: "
                 f"{unmatched}" if unmatched else ""))
    return 0


def cmd_bench_list(_args: argparse.Namespace) -> int:
    from repro.bench import baselines
    from repro.bench.schema import BenchRecord, SchemaError
    from repro.bench.suites import get_suite, suite_names

    have = baselines.discover(baselines.baseline_dir())
    print("bench experiments (python -m repro bench run <id>):")
    for bench_id in suite_names():
        suite = get_suite(bench_id)
        if bench_id in have:
            try:
                wall = f"{BenchRecord.load(have[bench_id]).wall_time_s:.1f} s"
            except (OSError, SchemaError):
                wall = "unreadable"
            marker = f"baseline, {wall}"
        else:
            marker = "no baseline"
        print(f"  {bench_id:<6} panels {'+'.join(suite.panel_ids):<6} "
              f"({marker})")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.errors import FaultPlanError
    from repro.faults import get_preset, preset_names

    if args.faults_command == "describe":
        try:
            plan = get_preset(args.plan)
        except FaultPlanError as exc:
            print(f"error: {exc}")
            return 1
        print(plan.describe())
        return 0
    print("named fault plans (python -m repro faults describe <name>):")
    for name in preset_names():
        plan = get_preset(name)
        summary = ("empty" if plan.is_empty else
                   f"{len(plan.links)} link(s), "
                   f"{len(plan.hosts)} host(s)")
        print(f"  {name:<14} {summary}")
    print("use: with injecting(get_preset(name)): ...   "
          "(see docs/RESILIENCE.md)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.apps.tails import DEFAULT_HEDGE_US

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Impact of High Performance Sockets on "
            "Data Intensive Applications' (HPDC 2003)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("id", help="panel id: a paper figure (4a, 4b, 7a, "
                                  "7b, 8a, 8b, 9a, 9b, 10, 11) or any "
                                  "other id 'list' prints, e.g. tlc")
    p_fig.add_argument("--quick", action="store_true", help="reduced axes")
    p_fig.add_argument("--save", metavar="DIR", default=None,
                       help="also write the table to DIR")
    p_fig.set_defaults(func=cmd_figure)

    p_micro = sub.add_parser("microbench", help="both Figure-4 panels")
    p_micro.add_argument("--quick", action="store_true")
    p_micro.add_argument("--save", metavar="DIR", default=None)
    p_micro.set_defaults(func=cmd_microbench)

    p_cal = sub.add_parser("calibration", help="show model parameters")
    p_cal.set_defaults(func=cmd_calibration)

    p_trace = sub.add_parser(
        "trace", help="run a panel with cross-layer tracing on"
    )
    p_trace.add_argument("id", help="panel id, e.g. 4a, fig4a or tlc")
    p_trace.add_argument("--kind", default=None,
                         help="only count/show this kind (prefix match)")
    p_trace.add_argument("--limit", type=int, default=10, metavar="N",
                         help="print the last N records (default 10, 0=none)")
    p_trace.add_argument("--full", action="store_true",
                         help="full figure axes instead of quick ones")
    p_trace.add_argument("--out", metavar="FILE", default=None,
                         help="dump matching records as JSON lines")
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="run one open-loop serving scenario"
    )
    p_serve.add_argument("--protocol", choices=("socketvia", "tcp"),
                         default="socketvia")
    p_serve.add_argument("--hosts", type=int, default=64,
                         help="cluster width; shards = hosts // 2 "
                              "(default 64)")
    p_serve.add_argument("--rate", type=float, default=300.0,
                         help="offered queries/second per shard "
                              "(default 300)")
    p_serve.add_argument("--horizon", type=float, default=0.05,
                         help="arrival window, simulated seconds "
                              "(default 0.05)")
    p_serve.add_argument("--capacity", type=int, default=8,
                         help="admission queue depth per shard (default 8)")
    p_serve.add_argument("--arrival", choices=("poisson", "bursty"),
                         default="poisson",
                         help="arrival process (bursty = MMPP on/off)")
    p_serve.add_argument("--seed", type=int, default=17)
    p_serve.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="run shard-parallel across N worker "
                              "processes (0 = one per CPU; default: "
                              "single process).  The merged result is "
                              "digest-identical to the serial run")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="with --jobs: memoize per-chunk results "
                              "in this content-addressed cache dir")
    p_serve.set_defaults(func=cmd_serve)

    p_tails = sub.add_parser(
        "tails", help="run one replicated-dispatch tail-latency scenario"
    )
    p_tails.add_argument("--protocol", choices=("socketvia", "tcp"),
                         default="socketvia")
    p_tails.add_argument("--k", type=int, default=2,
                         help="replicas per query (default 2)")
    p_tails.add_argument("--cancel", choices=("lazy", "none"),
                         default="lazy",
                         help="loser handling: lazy kernel cancellation "
                              "or run to completion (default lazy)")
    p_tails.add_argument("--hedge-us", type=float, default=DEFAULT_HEDGE_US,
                         metavar="US", dest="hedge_us",
                         help="hedge deadline in microseconds; 0 races "
                              "all k replicas from dispatch (default "
                              f"{DEFAULT_HEDGE_US:g}, ~2x service time)")
    p_tails.add_argument("--workers", type=int, default=6,
                         help="worker copies (default 6)")
    p_tails.add_argument("--queries", type=int, default=400,
                         help="Poisson query count (default 400)")
    p_tails.add_argument("--rate", type=float, default=3200.0,
                         help="offered load in queries/s (default 3200)")
    p_tails.add_argument("--plan", default="none", metavar="PRESET",
                         help="fault preset (see 'faults list'; "
                              "default none)")
    p_tails.add_argument("--seed", type=int, default=29)
    p_tails.set_defaults(func=cmd_tails)

    p_list = sub.add_parser("list", help="list the available panels")
    p_list.set_defaults(func=cmd_list)

    p_bench = sub.add_parser(
        "bench", help="benchmark harness: run, regression-gate, report"
    )
    p_bench.set_defaults(func=lambda args: (p_bench.print_help(), 1)[1])
    bsub = p_bench.add_subparsers(dest="bench_command")

    pb_run = bsub.add_parser(
        "run", help="run experiment suites into BENCH_<exp>.json records"
    )
    pb_run.add_argument("experiments", nargs="+",
                        help="suite ids, e.g. fig02 fig04 (also: 4, fig4)")
    pb_run.add_argument("--quick", action="store_true",
                        help="reduced axes (recorded in the output)")
    pb_run.add_argument("--results", metavar="DIR", default=None,
                        help="output dir (default benchmarks/results)")
    pb_run.add_argument("--update-baseline", action="store_true",
                        help="also copy the record into the baseline dir")
    pb_run.add_argument("--baselines", metavar="DIR", default=None,
                        help="baseline dir (default benchmarks/baselines)")
    pb_run.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="point-sweep workers (default REPRO_JOBS or 1; "
                             "0 = one per CPU)")
    pb_run.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed point-result cache")
    pb_run.add_argument("--profile", action="store_true",
                        help="cProfile each panel; write the top-20 "
                             "cumulative lines to "
                             "PROFILE_<exp>_<panel>.txt next to the "
                             "results (driver process only — pool "
                             "workers are not profiled)")
    pb_run.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache dir (default REPRO_BENCH_CACHE or "
                             "benchmarks/cache)")
    pb_run.set_defaults(func=cmd_bench_run)

    pb_cmp = bsub.add_parser(
        "compare", help="diff run records against the committed baselines"
    )
    pb_cmp.add_argument("experiments", nargs="*",
                        help="suites to compare (default: every run record)")
    pb_cmp.add_argument("--results", metavar="DIR", default=None)
    pb_cmp.add_argument("--baselines", metavar="DIR", default=None)
    pb_cmp.add_argument("--rel-warn", type=float, default=0.01,
                        help="relative delta that starts warning (default 1%%)")
    pb_cmp.add_argument("--rel-fail", type=float, default=0.05,
                        help="relative delta that fails the gate (default 5%%)")
    pb_cmp.add_argument("--verbose", action="store_true",
                        help="print every compared metric, not just drifts")
    pb_cmp.set_defaults(func=cmd_bench_compare)

    pb_rep = bsub.add_parser(
        "report", help="regenerate experiment docs from the baselines"
    )
    pb_rep.add_argument("--baselines", metavar="DIR", default=None)
    pb_rep.add_argument("--out", metavar="FILE",
                        default="docs/EXPERIMENTS_GENERATED.md",
                        help="generated document path")
    pb_rep.add_argument("--experiments-md", metavar="FILE",
                        default="EXPERIMENTS.md",
                        help="file whose bench:begin/end blocks to refresh "
                             "('' skips)")
    pb_rep.set_defaults(func=cmd_bench_report)

    pb_list = bsub.add_parser("list", help="list bench experiments")
    pb_list.set_defaults(func=cmd_bench_list)

    pb_cache = bsub.add_parser(
        "cache", help="inspect or clear the point-result cache"
    )
    pb_cache.set_defaults(func=lambda args: (pb_cache.print_help(), 1)[1])
    csub = pb_cache.add_subparsers(dest="cache_command")
    pc_stats = csub.add_parser("stats", help="entry count and size on disk")
    pc_stats.add_argument("--cache-dir", metavar="DIR", default=None)
    pc_stats.add_argument("--json", action="store_true",
                          help="machine-readable output (used by CI)")
    pc_stats.set_defaults(func=cmd_bench_cache, cache_command="stats")
    pc_clear = csub.add_parser("clear", help="delete every cache entry")
    pc_clear.add_argument("--cache-dir", metavar="DIR", default=None)
    pc_clear.set_defaults(func=cmd_bench_cache, cache_command="clear")

    p_faults = sub.add_parser(
        "faults", help="list or describe the named fault plans"
    )
    p_faults.set_defaults(func=cmd_faults, faults_command="list")
    fsub = p_faults.add_subparsers(dest="faults_command")
    pf_list = fsub.add_parser("list", help="list the preset fault plans")
    pf_list.set_defaults(func=cmd_faults, faults_command="list")
    pf_desc = fsub.add_parser(
        "describe", help="print one plan's faults and fingerprint"
    )
    pf_desc.add_argument("plan", help="plan name, e.g. chaos-fig8")
    pf_desc.set_defaults(func=cmd_faults, faults_command="describe")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    return args.func(args)
