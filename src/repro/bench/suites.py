"""Benchmark suite definitions: figures, anchors, and claims.

This module is the single source of truth for *what* the harness runs
and *how* a run is judged:

* :data:`FIGURES` — one callable per paper figure panel (moved here
  from the CLI so ``python -m repro figure``, ``python -m repro bench``
  and the pytest benchmarks all execute the same drivers);
* :class:`Anchor` — a scalar metric extracted from the result tables,
  optionally tied to a number the paper publishes (with a relative
  tolerance);
* :class:`Claim` — a structural pass/fail statement the paper makes
  (orderings, monotonicity, crossovers);
* :class:`BenchSuite` — groups the panels of one experiment
  (``fig04`` = panels 4a + 4b) with its anchor/claim extractors.

The pytest benchmarks under ``benchmarks/`` are thin adapters over
these extractors, and ``repro.bench.runner`` persists their output —
one implementation, two front ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.records import ExperimentTable, ratio

__all__ = [
    "FIGURES",
    "PLANS",
    "RUNTIME_HINT",
    "Anchor",
    "Claim",
    "BenchSuite",
    "SUITES",
    "get_suite",
    "suite_names",
]


def _panel_specs() -> Dict[str, tuple]:
    """Panel id -> ``(serial driver, point-plan factory, base kwargs,
    quick kwargs)``.

    One table backs both :data:`FIGURES` (the serial drivers) and
    :data:`PLANS` (the sweep decompositions the executor runs), so the
    quick axes can never diverge between the two paths.
    """
    from repro.bench import figures as f
    from repro.bench import servebench as sb
    from repro.bench import tailsbench as tb
    from repro.bench import wancachebench as wb

    return {
        # fig2 is a closed-form model evaluation with no sweep axes, so
        # it is exempt from quick mode by design: quick and full runs
        # produce the same (instant) table.  Audited by
        # tests/test_bench_executor.py::test_fig2_quick_equals_full.
        "2": (f.fig2_message_size_economics, f.fig2_points, {}, {}),
        "4a": (f.fig4a_latency, f.fig4a_points, {},
               {"sizes": [4, 256, 4096]}),
        "4b": (f.fig4b_bandwidth, f.fig4b_points, {},
               {"sizes": [2048, 16384, 65536]}),
        "7a": (f.fig7_update_rate_guarantee, f.fig7_points,
               {"compute_ns_per_byte": 0.0},
               {"rates": [4.0, 3.25, 2.0], "frames": 2}),
        "7b": (f.fig7_update_rate_guarantee, f.fig7_points,
               {"compute_ns_per_byte": 18.0},
               {"rates": [3.25, 2.0], "frames": 2}),
        "8a": (f.fig8_latency_guarantee, f.fig8_points,
               {"compute_ns_per_byte": 0.0},
               {"bounds_us": [1000, 400, 100], "frames": 2}),
        "8b": (f.fig8_latency_guarantee, f.fig8_points,
               {"compute_ns_per_byte": 18.0},
               {"bounds_us": [1000, 400, 200], "frames": 2}),
        "9a": (f.fig9_query_mix, f.fig9_points,
               {"compute_ns_per_byte": 0.0},
               {"fractions": [0.0, 0.6, 1.0], "n_queries": 6}),
        "9b": (f.fig9_query_mix, f.fig9_points,
               {"compute_ns_per_byte": 18.0},
               {"fractions": [0.0, 1.0], "n_queries": 6}),
        "10": (f.fig10_rr_reaction, f.fig10_points, {},
               {"factors": [2, 10], "total_bytes": 4 * 1024 * 1024}),
        "11": (f.fig11_dd_heterogeneity, f.fig11_points, {},
               {"probabilities": [0.1, 0.9], "factors": [2, 8],
                "total_bytes": 2 * 1024 * 1024}),
        # Chaos panels: Figures 8 and 11 re-measured under the named
        # fault plans in repro.faults.presets, fault-free legs side by
        # side (those reuse the plain fig8/fig11 points, sharing their
        # cache entries).
        "c8": (f.chaos8_update_rate, f.chaos8_points,
               {"compute_ns_per_byte": 18.0},
               {"bounds_us": [1000, 200], "frames": 2}),
        "c11": (f.chaos11_crash_recovery, f.chaos11_points, {},
                {"probabilities": [0.1, 0.9],
                 "total_bytes": 2 * 1024 * 1024}),
        # Serving panels (repro.bench.servebench): open-loop capacity
        # vs offered load, and per-query event-cost flatness vs
        # cluster width.  Quick mode shrinks the cluster and horizon —
        # CI's serve-smoke job runs exactly those axes.
        "serve": (sb.serve_load_sweep, sb.serve_points, {},
                  {"hosts": 64, "rates": [200.0, 800.0],
                   "bursty_rates": [800.0], "horizon": 0.02}),
        # Quick widths start at 32 hosts: narrower clusters amortize
        # the per-shard setup over too few queries for the flatness
        # claim to be meaningful at a short horizon.
        "serve_scale": (sb.serve_scale_sweep, sb.serve_scale_points, {},
                        {"hosts_axis": [32, 64], "horizon": 0.03}),
        # WAN block-cache panels (repro.bench.wancachebench): query
        # latency vs cache temperature x stripe width, and bulk striped
        # throughput vs width.  Quick mode drops the warm temperature
        # and the widest stripes and shrinks the dataset — CI's
        # wancache-smoke job runs exactly those axes.
        # Quick keeps blocks_per_query at 8: a query must overflow one
        # stream's flow-control window (256 KiB) or striping has
        # nothing to recover and the striping claim loses its margin.
        "wcq": (wb.wcq_sweep, wb.wcq_points, {},
                {"temperatures": ["cold", "hot"], "widths": [1, 4],
                 "n_blocks": 32, "n_queries": 3}),
        "wcb": (wb.wcb_sweep, wb.wcb_points, {},
                {"widths": [1, 4], "n_blocks": 24,
                 "block_bytes": 128 * 1024}),
        # Replicated-dispatch panels (repro.bench.tailsbench): latency
        # percentiles and the cost/conservation ledger per fault plan x
        # replication factor.  Both panels share one point per cell, so
        # tlc resolves from tls's cache entries.  Quick mode drops k=3
        # and shrinks the query schedule — CI's tails-smoke job runs
        # exactly those axes; the straggler preset's fault windows
        # repeat every 25 ms, so the quick horizon (~37 ms) still sees
        # both straggler mechanisms.
        "tls": (tb.tls_sweep, tb.tls_points, {},
                {"ks": [1, 2], "n_queries": 120}),
        "tlc": (tb.tlc_sweep, tb.tlc_points, {},
                {"ks": [1, 2], "n_queries": 120}),
    }


def _figures() -> Dict[str, Callable]:
    from repro.bench import executor as x
    from repro.bench import microbench as m

    def serial(fn, base, quick_kwargs):
        return lambda quick: fn(**base, **(quick_kwargs if quick else {}))

    registry = {
        panel: serial(fn, base, quick_kwargs)
        for panel, (fn, _plan, base, quick_kwargs) in _panel_specs().items()
    }
    # Meta-suites: not figure sweeps themselves, so they run inline
    # (no point plan) — the kernel suite times the host, the sweep
    # suite times the executor.
    registry["kernel"] = lambda quick: m.kernel_suite(quick)
    registry["sweep"] = lambda quick: x.sweep_benchmark(quick)

    def fluid(quick):
        from repro.bench import fluidbench as fb
        return fb.fluid_suite(quick)

    registry["fluid"] = fluid

    def serve_par(quick):
        from repro.bench import servebench as sb
        return sb.serve_parallel_benchmark(quick)

    registry["serve_par"] = serve_par
    return registry


def _plans() -> Dict[str, Optional[Callable]]:
    def plan(fn, base, quick_kwargs):
        return lambda quick: fn(**base, **(quick_kwargs if quick else {}))

    return {
        panel: plan(plan_fn, base, quick_kwargs)
        for panel, (_fn, plan_fn, base, quick_kwargs) in _panel_specs().items()
    }


class _LazyRegistry(dict):
    """Panel registry that defers the (heavy) driver imports."""

    def __init__(self, filler: Callable[[], dict]) -> None:
        super().__init__()
        self._filler = filler

    def _fill(self) -> None:
        if not super().__len__():
            super().update(self._filler())

    def __getitem__(self, key):
        self._fill()
        return super().__getitem__(key)

    def __contains__(self, key):
        self._fill()
        return super().__contains__(key)

    def __iter__(self):
        self._fill()
        return super().__iter__()

    def __len__(self):
        self._fill()
        return super().__len__()

    def get(self, key, default=None):
        self._fill()
        return super().get(key, default)

    def keys(self):
        self._fill()
        return super().keys()

    def items(self):
        self._fill()
        return super().items()


#: Panel id -> serial driver callable taking one ``quick`` flag.
FIGURES: Dict[str, Callable] = _LazyRegistry(_figures)

#: Panel id -> point-plan factory taking one ``quick`` flag.  Panels
#: absent here (``kernel``, ``sweep``) have no sweep decomposition and
#: always run inline/serial, uncached (they measure the host).
PLANS: Dict[str, Callable] = _LazyRegistry(_plans)

#: Rough full-axis runtimes, shown by the ``list`` commands.
RUNTIME_HINT = {
    "2": "instant", "4a": "~1 s", "4b": "~1 s", "7a": "~30 s",
    "7b": "~30 s", "8a": "~20 s", "8b": "~20 s", "9a": "~30 s",
    "9b": "~30 s", "10": "~1 s", "11": "~4 s", "c8": "~30 s",
    "c11": "~10 s", "kernel": "~5 s",
    "sweep": "~2 min", "fluid": "~5 s", "serve": "~1 min",
    "serve_scale": "~30 s", "serve_par": "~2 min",
    "wcq": "~30 s", "wcb": "~15 s", "tls": "~10 s", "tlc": "~1 s",
}


@dataclass(frozen=True)
class Anchor:
    """One scalar metric extracted from a run.

    ``paper`` and ``rel_tol`` are set when the paper publishes the
    number; :attr:`ok` then states whether the measurement lands within
    the tolerance band.  Anchors without a paper value are tracked for
    baseline regressions only.
    """

    key: str
    description: str
    measured: Optional[float]
    group: str  # panel id the metric comes from (e.g. "4a")
    unit: str = ""
    paper: Optional[float] = None
    rel_tol: Optional[float] = None

    @property
    def delta_rel(self) -> Optional[float]:
        """Relative deviation from the paper value (None when untied)."""
        if self.paper in (None, 0) or self.measured is None:
            return None
        return (self.measured - self.paper) / abs(self.paper)

    @property
    def ok(self) -> bool:
        """Within tolerance of the paper value (True when untied)."""
        if self.paper is None or self.rel_tol is None:
            return self.measured is not None
        if self.measured is None:
            return False
        return abs(self.measured - self.paper) <= self.rel_tol * abs(self.paper)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "description": self.description,
            "measured": self.measured,
            "group": self.group,
            "unit": self.unit,
            "paper": self.paper,
            "rel_tol": self.rel_tol,
            "delta_rel": self.delta_rel,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class Claim:
    """One structural statement from the paper, checked against a run."""

    key: str
    description: str
    passed: bool
    group: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "description": self.description,
            "passed": self.passed,
            "group": self.group,
        }


Extractor = Callable[[Dict[str, ExperimentTable]], List]


@dataclass(frozen=True)
class BenchSuite:
    """One benchmark experiment: its panels and how to judge a run."""

    bench_id: str
    title: str
    panels: Tuple[str, ...]
    anchors: Extractor = field(default=lambda tables: [])
    claims: Extractor = field(default=lambda tables: [])

    @property
    def runtime_hint(self) -> str:
        return " + ".join(RUNTIME_HINT.get(p, "?") for p in self.panels)


def _cell(table: ExperimentTable, key_col: str, key, value_col: str):
    """Table cell lookup by row key; None when the row is absent."""
    try:
        idx = table.column(key_col).index(key)
    except ValueError:
        return None
    return table.rows[idx][table.columns.index(value_col)]


# ---------------------------------------------------------------------------
# fig02 — message-size economics
# ---------------------------------------------------------------------------


def _fig02_values(table: ExperimentTable) -> Dict[str, float]:
    return dict(zip(table.column("quantity"), table.column("value")))


def _fig02_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    table = tables.get("2")
    if table is None:
        return []
    v = _fig02_values(table)

    def mk(key, desc, quantity, unit):
        return Anchor(key, desc, v.get(quantity), group="2", unit=unit)

    return [
        mk("u1_bytes", "U1: kernel-sockets message size for B",
           "U1 (kernel sockets size for B, bytes)", "B"),
        mk("u2_bytes", "U2: high-perf substrate size for B",
           "U2 (high-perf substrate size for B, bytes)", "B"),
        mk("l1_us", "L1: kernel latency at U1",
           "L1 = kernel latency at U1 (us)", "us"),
        mk("l2_us", "L2: substrate latency at U1",
           "L2 = substrate latency at U1 (us)", "us"),
        mk("l3_us", "L3: substrate latency at U2",
           "L3 = substrate latency at U2 (us)", "us"),
    ]


def _fig02_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("2")
    if table is None:
        return []
    v = _fig02_values(table)
    u1 = v["U1 (kernel sockets size for B, bytes)"]
    u2 = v["U2 (high-perf substrate size for B, bytes)"]
    l1 = v["L1 = kernel latency at U1 (us)"]
    l2 = v["L2 = substrate latency at U1 (us)"]
    l3 = v["L3 = substrate latency at U2 (us)"]
    return [
        Claim("u2_much_smaller_than_u1",
              "U2 << U1 (repartitioning has room to shrink messages)",
              u2 < u1 / 4, "2"),
        Claim("latency_staircase",
              "L3 < L2 < L1 (direct then indirect improvement)",
              l3 < l2 < l1, "2"),
        Claim("total_improvement_over_10x",
              "L1/L3 > 10 (combined improvement exceeds an order of magnitude)",
              l1 / l3 > 10, "2"),
    ]


# ---------------------------------------------------------------------------
# fig04 — micro-benchmarks (the calibrated anchors)
# ---------------------------------------------------------------------------


def _fig04_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    from repro.net import PAPER_MICROBENCH

    anchors: List[Anchor] = []
    lat = tables.get("4a")
    if lat is not None:
        sv = _cell(lat, "msg_bytes", 4, "SocketVIA")
        tcp = _cell(lat, "msg_bytes", 4, "TCP")
        via = _cell(lat, "msg_bytes", 4, "VIA")
        anchors += [
            Anchor("socketvia_latency_4b_us", "SocketVIA 4-byte latency",
                   sv, group="4a", unit="us",
                   paper=PAPER_MICROBENCH["socketvia_latency_4b_us"],
                   rel_tol=0.05),
            Anchor("tcp_over_socketvia_latency",
                   "TCP / SocketVIA latency ratio (4 B)",
                   ratio(tcp, sv), group="4a", unit="x",
                   paper=PAPER_MICROBENCH["tcp_latency_over_socketvia"],
                   rel_tol=0.10),
            Anchor("via_latency_4b_us", "raw VIA 4-byte latency",
                   via, group="4a", unit="us"),
        ]
    bw = tables.get("4b")
    if bw is not None:
        def peak(col):
            return _cell(bw, "msg_bytes", 65536, col)

        def at2k(col):
            return _cell(bw, "msg_bytes", 2048, col)

        anchors += [
            Anchor("via_peak_mbps", "VIA peak bandwidth (64 KB)",
                   peak("VIA"), group="4b", unit="Mbps",
                   paper=PAPER_MICROBENCH["via_peak_mbps"], rel_tol=0.05),
            Anchor("socketvia_peak_mbps", "SocketVIA peak bandwidth (64 KB)",
                   peak("SocketVIA"), group="4b", unit="Mbps",
                   paper=PAPER_MICROBENCH["socketvia_peak_mbps"],
                   rel_tol=0.05),
            Anchor("tcp_peak_mbps", "TCP peak bandwidth (64 KB)",
                   peak("TCP"), group="4b", unit="Mbps",
                   paper=PAPER_MICROBENCH["tcp_peak_mbps"], rel_tol=0.05),
            Anchor("socketvia_2k_fraction_of_peak",
                   "SocketVIA bandwidth at 2 KB / its peak",
                   ratio(at2k("SocketVIA"), peak("SocketVIA")),
                   group="4b", unit="frac"),
            Anchor("tcp_2k_fraction_of_peak",
                   "TCP bandwidth at 2 KB / its peak",
                   ratio(at2k("TCP"), peak("TCP")), group="4b", unit="frac"),
        ]
    return anchors


def _fig04_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    claims: List[Claim] = []
    lat = tables.get("4a")
    if lat is not None:
        via = _cell(lat, "msg_bytes", 4, "VIA")
        sv = _cell(lat, "msg_bytes", 4, "SocketVIA")
        tcp = _cell(lat, "msg_bytes", 4, "TCP")
        claims.append(Claim(
            "latency_ordering", "VIA < SocketVIA < TCP at 4 bytes",
            via < sv < tcp, "4a"))
        monotone = all(
            lat.column(col) == sorted(lat.column(col))
            for col in ("VIA", "SocketVIA", "TCP"))
        claims.append(Claim(
            "latency_monotone", "latency grows with message size, every series",
            monotone, "4a"))
    bw = tables.get("4b")
    if bw is not None:
        sv2k = _cell(bw, "msg_bytes", 2048, "SocketVIA")
        svp = _cell(bw, "msg_bytes", 65536, "SocketVIA")
        tcp2k = _cell(bw, "msg_bytes", 2048, "TCP")
        tcpp = _cell(bw, "msg_bytes", 65536, "TCP")
        claims += [
            Claim("socketvia_near_peak_at_2k",
                  "SocketVIA within 10% of peak at 2 KB (U2)",
                  sv2k > 0.9 * svp, "4b"),
            Claim("tcp_far_from_peak_at_2k",
                  "TCP below 75% of peak at 2 KB (needs U1 ~ 16 KB)",
                  tcp2k < 0.75 * tcpp, "4b"),
        ]
    return claims


# ---------------------------------------------------------------------------
# fig10 — round-robin reaction time
# ---------------------------------------------------------------------------


def _fig10_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    from repro.net import PAPER_RESULTS

    table = tables.get("10")
    if table is None:
        return []
    anchors = []
    for factor, r in zip(table.column("factor"),
                         table.column("ratio_tcp_over_sv")):
        anchors.append(Anchor(
            f"reaction_ratio_factor_{factor}",
            f"TCP/SocketVIA reaction-time ratio at heterogeneity {factor}",
            r, group="10", unit="x",
            paper=PAPER_RESULTS["fig10_reaction_ratio"], rel_tol=0.15))
    return anchors


def _fig10_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("10")
    if table is None:
        return []
    sv = table.column("SocketVIA")
    tcp = table.column("TCP")
    return [
        Claim("reaction_grows_with_factor",
              "reaction time grows with the heterogeneity factor",
              sv == sorted(sv) and tcp == sorted(tcp), "10"),
        Claim("socketvia_reacts_faster",
              "SocketVIA reacts faster than TCP at every factor",
              all(s < t for s, t in zip(sv, tcp)), "10"),
    ]


# ---------------------------------------------------------------------------
# fig11 — demand-driven scheduling under dynamic slowdown
# ---------------------------------------------------------------------------


def _fig11_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("11")
    if table is None:
        return []
    sv_cols = [c for c in table.columns if c.startswith("SocketVIA")]
    tcp_cols = [c for c in table.columns if c.startswith("TCP")]
    close = all(
        abs(t - s) / s < 0.15
        for sc, tc in zip(sv_cols, tcp_cols)
        for s, t in zip(table.column(sc), table.column(tc)))
    rising = all(
        table.column(c)[0] < table.column(c)[-1]
        for c in sv_cols + tcp_cols)
    return [
        Claim("tcp_tracks_socketvia",
              "TCP within 15% of SocketVIA under demand-driven scheduling",
              close, "11"),
        Claim("time_rises_with_p_slow",
              "execution time rises with P(slow), every series",
              rising, "11"),
    ]


# ---------------------------------------------------------------------------
# chaos — Figures 8 and 11 under calibrated fault plans (not a paper
# figure; gates the fault-injection and resilience machinery in
# repro.faults, see docs/RESILIENCE.md)
# ---------------------------------------------------------------------------


def _chaos_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    anchors: List[Anchor] = []
    c8 = tables.get("c8")
    if c8 is not None:
        # Bound 1000 us is on both the full and --quick axes.
        for proto in ("TCP", "SocketVIA"):
            base = _cell(c8, "latency_us", 1000, proto)
            chaos = _cell(c8, "latency_us", 1000, f"{proto}_chaos")
            anchors.append(Anchor(
                f"chaos8_{proto.lower()}_rate_retention",
                f"{proto} update rate under chaos-fig8 / fault-free "
                "(1000 us bound)",
                ratio(chaos, base), group="c8", unit="frac"))
    c11 = tables.get("c11")
    if c11 is not None:
        # P(slow)=10% is on both the full and --quick axes.
        anchors += [
            Anchor("chaos11_sv_crash_overhead",
                   "SocketVIA execution time with worker crash+restart / "
                   "fault-free (P(slow)=0.1)",
                   ratio(_cell(c11, "prob_slow_pct", 10, "SocketVIA_chaos"),
                         _cell(c11, "prob_slow_pct", 10, "SocketVIA")),
                   group="c11", unit="x"),
            Anchor("chaos11_sv_crashed_share",
                   "share of blocks the crashed worker still processed "
                   "(SocketVIA, P(slow)=0.1)",
                   _cell(c11, "prob_slow_pct", 10, "sv_crashed_share"),
                   group="c11", unit="frac"),
        ]
    return anchors


def _chaos_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    claims: List[Claim] = []
    c8 = tables.get("c8")
    if c8 is not None:
        cells = [
            (base, chaos)
            for proto in ("TCP", "SocketVIA")
            for base, chaos in zip(c8.column(proto),
                                   c8.column(f"{proto}_chaos"))
            if base is not None and chaos is not None
        ]
        claims += [
            Claim("chaos8_faults_degrade_rate",
                  "fault injection lowers the measured update rate, "
                  "every cell",
                  all(chaos < base for base, chaos in cells), "c8"),
            Claim("chaos8_degradation_bounded",
                  "chaos keeps at least half the fault-free update rate "
                  "(graceful degradation, not collapse)",
                  all(chaos >= 0.5 * base for base, chaos in cells), "c8"),
        ]
    c11 = tables.get("c11")
    if c11 is not None:
        pairs = [
            (base, chaos)
            for proto in ("SocketVIA", "TCP")
            for base, chaos in zip(c11.column(proto),
                                   c11.column(f"{proto}_chaos"))
        ]
        shares = c11.column("sv_crashed_share") + c11.column("tcp_crashed_share")
        # Crashed vs peer, not vs the fair share 1/n: the crashed worker
        # and its healthy peer gain from the slow node's slowness
        # symmetrically, so only the crash separates their shares.
        share_pairs = [
            (crashed, peer)
            for p in ("sv", "tcp")
            for crashed, peer in zip(c11.column(f"{p}_crashed_share"),
                                     c11.column(f"{p}_peer_share"))
        ]
        claims += [
            Claim("chaos11_crash_overhead_bounded",
                  "worker crash+restart costs time but never doubles it "
                  "(demand-driven rescheduling absorbs the outage)",
                  all(base < chaos <= 2 * base for base, chaos in pairs),
                  "c11"),
            Claim("chaos11_dd_routes_around_crash",
                  "the crashed worker processes fewer blocks than its "
                  "healthy peer at every P(slow)",
                  all(crashed < peer for crashed, peer in share_pairs),
                  "c11"),
            Claim("chaos11_crashed_worker_rejoins",
                  "the crashed worker keeps a substantial share of blocks "
                  "at every P(slow) (it rejoined at restart)",
                  all(0.2 < s < 0.5 for s in shares), "c11"),
        ]
    return claims


# ---------------------------------------------------------------------------
# kernel — simulation-kernel throughput (not a paper figure; gates the
# event-loop fast path that every figure reproduction runs on)
# ---------------------------------------------------------------------------


def _kernel_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    table = tables.get("kernel")
    if table is None:
        return []
    idx = table.column("workload").index("TOTAL")
    total_events = table.column("events")[idx]
    heap_peak = max(table.column("heap_peak"))
    eps = table.column("events_per_sec")[idx]
    pool_hits = table.column("pool_hits")[idx]
    compactions = table.column("compactions")[idx]
    return [
        Anchor("kernel_total_events",
               "useful events processed across all workloads "
               "(deterministic)",
               float(total_events), group="kernel", unit="events"),
        Anchor("kernel_heap_peak",
               "largest event heap any workload reached (deterministic)",
               float(heap_peak), group="kernel", unit="entries"),
        Anchor("kernel_pool_hits",
               "events served from the timeout/event free lists "
               "(deterministic)",
               float(pool_hits), group="kernel", unit="events"),
        Anchor("kernel_compactions",
               "tombstone compaction sweeps across all workloads "
               "(deterministic)",
               float(compactions), group="kernel", unit="sweeps"),
        Anchor("events_per_sec",
               "aggregate kernel throughput (host-dependent, gated "
               "warn-only)",
               float(eps), group="kernel", unit="events/s"),
    ]


def _kernel_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    table = tables.get("kernel")
    if table is None:
        return []
    names = table.column("workload")
    events = dict(zip(names, table.column("events")))
    expected = dict(zip(names, table.column("expected_events")))
    exact = all(events[w] == expected[w] for w in names)
    return [
        Claim("event_counts_exact",
              "every workload processed exactly its closed-form event "
              "count (cancelled timers contributed zero fired events)",
              exact, "kernel"),
        Claim("wheel_cancellation_lazy",
              "timer-wheel fires only the surviving timer per connection "
              "despite ~10x as many scheduled-then-cancelled",
              events.get("timer_wheel") == expected.get("timer_wheel"),
              "kernel"),
        Claim("cancelled_deadlines_never_fire",
              "deadline-cancel workload processed only its live "
              "survivors",
              events.get("timer_cancel") == expected.get("timer_cancel"),
              "kernel"),
    ]


# ---------------------------------------------------------------------------
# sweep — point-sweep executor wall clock (not a paper figure; gates the
# parallel/cached execution path every figure sweep runs on)
# ---------------------------------------------------------------------------


def _sweep_host_cpus(table: ExperimentTable) -> Optional[int]:
    import re

    for note in table.notes:
        m = re.search(r"host_cpus=(\d+)", note)
        if m:
            return int(m.group(1))
    return None


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


# ---------------------------------------------------------------------------
# fluid — fluid-flow vs packet fidelity (not a paper figure; gates the
# hybrid transfer mode in repro.sim.flow and its fast paths in the
# link/TCP/VIA layers, see docs/ARCHITECTURE.md "Fluid-flow mode")
# ---------------------------------------------------------------------------


def _fluid_rows(table: ExperimentTable):
    return [dict(zip(table.columns, row)) for row in table.rows]


def _fluid_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    from repro.bench.fluidbench import LARGE_BYTES

    table = tables.get("fluid")
    if table is None:
        return []
    rows = _fluid_rows(table)
    large = [r["event_ratio"] for r in rows
             if r["scenario"].endswith("-oneshot")
             and r["msg_bytes"] >= LARGE_BYTES
             and r["event_ratio"] is not None]
    saved = sum(r["events_packet"] - r["events_fluid"] for r in rows)
    return [
        Anchor("fluid_min_large_ratio",
               "worst packet/fluid event ratio over large one-shot "
               "transfers (deterministic; CI floor is 5x)",
               min(large) if large else None, group="fluid", unit="x"),
        Anchor("fluid_max_rel_err",
               "largest |fluid - packet| relative time error, any scenario",
               max(r["rel_err"] for r in rows), group="fluid", unit="frac"),
        Anchor("fluid_events_saved",
               "kernel events the fluid legs avoided across all scenarios "
               "(deterministic)",
               float(saved), group="fluid", unit="events"),
    ]


def _fluid_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    from repro.bench.fluidbench import LARGE_BYTES

    table = tables.get("fluid")
    if table is None:
        return []
    rows = _fluid_rows(table)
    oneshot = [r for r in rows if r["scenario"].endswith("-oneshot")]
    large = [r for r in oneshot if r["msg_bytes"] >= LARGE_BYTES]
    tcp_fanin = [r for r in rows if r["scenario"] == "tcp-fanin"]
    return [
        Claim("fluid_large_10x",
              "every large (>= 1 MiB) one-shot transfer needs >= 10x "
              "fewer kernel events in fluid mode",
              all(r["event_ratio"] is not None and r["event_ratio"] >= 10
                  for r in large) and bool(large), "fluid"),
        Claim("fluid_oneshot_exact",
              "one-shot transfers are bit-compatible: fluid time within "
              "float noise (rel_err <= 1e-9) of the packet time",
              all(r["rel_err"] <= 1e-9 for r in oneshot), "fluid"),
        Claim("fluid_within_band",
              "every scenario — streams, SocketVIA fan-in, and TCP "
              "fan-in included — lands within the comparator's 5% band "
              "of the packet truth",
              all(r["rel_err"] <= 0.05 for r in rows), "fluid"),
        Claim("fluid_tcp_fanin_bounded",
              "tcp-fanin, the band's closest call (receiver-kernel "
              "occupancy recovers most but not all rx interleaving), "
              "stays optimistic but bounded: packet/2 <= fluid <= packet",
              all(0.5 * r["t_packet_us"] <= r["t_fluid_us"]
                  <= r["t_packet_us"] for r in tcp_fanin)
              and bool(tcp_fanin), "fluid"),
        Claim("fluid_never_slower",
              "no scenario processes more kernel events in fluid mode "
              "than in packet mode",
              all(r["events_fluid"] <= r["events_packet"] for r in rows),
              "fluid"),
    ]


# ---------------------------------------------------------------------------
# serve — open-loop serving capacity (repro.bench.servebench)
# ---------------------------------------------------------------------------


def _serve_rows(table: ExperimentTable) -> List[Dict]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def _serve_poisson_cell(table: ExperimentTable, rate: float, col: str):
    """Cell lookup on the load panel's Poisson rows by rate."""
    for row in _serve_rows(table):
        if row["arrival"] == "poisson" and row["rate_per_shard"] == rate:
            return row[col]
    return None


def _serve_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    anchors: List[Anchor] = []
    load = tables.get("serve")
    if load is not None:
        rates = [r["rate_per_shard"] for r in _serve_rows(load)
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
        row = _serve_rows(par)[0]
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
        rows = _serve_rows(load)
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
        row = _serve_rows(par)[0]
        cpus = _sweep_host_cpus(par)
        claims += [
            Claim("serve_par_digest_identical",
                  "the sharded runs (parallel cold and fully cached) "
                  "merge to the exact single-process ServeResult — "
                  "identical sha256 digest over counts and every "
                  "float-exact latency sample",
                  row["identical"] == "yes", "serve_par"),
            Claim("serve_par_warm_hits_full",
                  "the cached rerun hit the chunk cache on every point",
                  row["warm_hits"] == row["points"], "serve_par"),
            Claim("serve_par_3x_when_cores_allow",
                  "--jobs 4 sharded run >= 3x faster than the single "
                  "process (vacuous on hosts with fewer than 4 CPUs — "
                  "parallelism is core-bound)",
                  (cpus is not None and cpus < 4)
                  or (row["speedup_parallel"] is not None
                      and row["speedup_parallel"] >= 3), "serve_par"),
        ]
    return claims


# ---------------------------------------------------------------------------
# wancache — block-cache tier + striped WAN reads (repro.bench.wancachebench)
# ---------------------------------------------------------------------------


def _wcq_cell(table: ExperimentTable, temp: str, width: int, col: str):
    for row in _serve_rows(table):
        if row["temperature"] == temp and row["stripe"] == width:
            return row[col]
    return None


def _wancache_headline_width(table: ExperimentTable) -> int:
    """The stripe width the headline speedup claim gates on: 4 when
    present (full and quick axes both carry it), else the widest."""
    widths = sorted({r["stripe"] for r in _serve_rows(table)})
    return 4 if 4 in widths else widths[-1]


def _wancache_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    anchors: List[Anchor] = []
    wcq = tables.get("wcq")
    if wcq is not None:
        w = _wancache_headline_width(wcq)
        cold = _wcq_cell(wcq, "cold", w, "SocketVIA_mean_ms")
        hot = _wcq_cell(wcq, "hot", w, "SocketVIA_mean_ms")
        anchors += [
            Anchor("wancache_sv_cold_ms",
                   f"SocketVIA cold-cache mean query latency at stripe "
                   f"width {w} (deterministic)",
                   cold, group="wcq", unit="ms"),
            Anchor("wancache_sv_hot_ms",
                   f"SocketVIA hot-cache mean query latency at stripe "
                   f"width {w} (deterministic)",
                   hot, group="wcq", unit="ms"),
            Anchor("wancache_hot_speedup",
                   "hot-cache speedup over cold, SocketVIA at the "
                   "headline stripe width (gate is >= 3x)",
                   ratio(cold, hot), group="wcq", unit="x"),
        ]
    wcb = tables.get("wcb")
    if wcb is not None:
        rows = _serve_rows(wcb)
        by_width = {r["stripe"]: r for r in rows}
        low = min(by_width)
        head = 4 if 4 in by_width else max(by_width)
        anchors += [
            Anchor("wancache_sv_stripe1_MBps",
                   "SocketVIA single-stream bulk throughput on the "
                   "high-BDP link (deterministic)",
                   by_width[low]["SocketVIA_MBps"],
                   group="wcb", unit="MB/s"),
            Anchor("wancache_sv_stripe4_MBps",
                   f"SocketVIA bulk throughput at stripe width {head} "
                   "(deterministic)",
                   by_width[head]["SocketVIA_MBps"],
                   group="wcb", unit="MB/s"),
            Anchor("wancache_stripe_speedup",
                   f"stripe-width-{head} speedup over single-stream, "
                   "SocketVIA (gate is >= 2x)",
                   ratio(by_width[head]["SocketVIA_MBps"],
                         by_width[low]["SocketVIA_MBps"]),
                   group="wcb", unit="x"),
        ]
    return anchors


def _wancache_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    claims: List[Claim] = []
    wcq = tables.get("wcq")
    if wcq is not None:
        rows = _serve_rows(wcq)
        widths = sorted({r["stripe"] for r in rows})
        temps = {r["temperature"] for r in rows}
        head = _wancache_headline_width(wcq)
        cold = _wcq_cell(wcq, "cold", head, "SocketVIA_mean_ms")
        hot = _wcq_cell(wcq, "hot", head, "SocketVIA_mean_ms")
        ordered = True
        for width in widths:
            for col in ("SocketVIA_mean_ms", "TCP_mean_ms"):
                c = _wcq_cell(wcq, "cold", width, col)
                h = _wcq_cell(wcq, "hot", width, col)
                seq = [c, h]
                if "warm" in temps:
                    seq.insert(1, _wcq_cell(wcq, "warm", width, col))
                if any(v is None for v in seq) or \
                        any(a <= b for a, b in zip(seq, seq[1:])):
                    ordered = False
        claims += [
            Claim("wancache_hot_3x",
                  "hot-cache queries are >= 3x faster than cold over "
                  "the WAN preset (SocketVIA, headline stripe width)",
                  cold is not None and hot is not None
                  and cold >= 3.0 * hot, "wcq"),
            Claim("wancache_temperature_orders",
                  "latency orders cold > warm > hot at every stripe "
                  "width for both transports (warm rows when present)",
                  ordered, "wcq"),
            Claim("wancache_hit_rates_exact",
                  "hit accounting is exact: cold rows measure 0.0 and "
                  "hot rows 1.0 for both transports",
                  all(r["SocketVIA_hit_rate"] == 0.0
                      and r["TCP_hit_rate"] == 0.0
                      for r in rows if r["temperature"] == "cold")
                  and all(r["SocketVIA_hit_rate"] == 1.0
                          and r["TCP_hit_rate"] == 1.0
                          for r in rows if r["temperature"] == "hot"),
                  "wcq"),
            Claim("wancache_striping_helps_cold",
                  "striping shortens cold-cache queries: SocketVIA "
                  "cold latency at the headline width is below "
                  "single-stream",
                  (_wcq_cell(wcq, "cold", head, "SocketVIA_mean_ms")
                   or 0.0)
                  < (_wcq_cell(wcq, "cold", min(widths),
                               "SocketVIA_mean_ms") or 0.0)
                  if head != min(widths) else True, "wcq"),
        ]
    wcb = tables.get("wcb")
    if wcb is not None:
        rows = _serve_rows(wcb)
        by_width = {r["stripe"]: r for r in rows}
        low = min(by_width)
        head = 4 if 4 in by_width else max(by_width)
        monotone = True
        for col in ("SocketVIA_MBps", "TCP_MBps"):
            seq = [by_width[w][col] for w in sorted(by_width)]
            # near-monotone: 2% slack absorbs saturation plateaus at
            # the widest stripes, never a real regression
            if any(b < 0.98 * a for a, b in zip(seq, seq[1:])):
                monotone = False
        digests = [r[c] for r in rows
                   for c in ("SocketVIA_digest", "TCP_digest")]
        claims += [
            Claim("wancache_stripe_2x",
                  f"stripe width {head} sustains >= 2x single-stream "
                  "bulk throughput on the high-BDP link, both "
                  "transports",
                  all(by_width[head][c] >= 2.0 * by_width[low][c]
                      for c in ("SocketVIA_MBps", "TCP_MBps")), "wcb"),
            Claim("wancache_stripe_monotone",
                  "bulk throughput is near-monotone in stripe width "
                  "(<= 2% slack) for both transports",
                  monotone, "wcb"),
            Claim("wancache_reassembly_identical",
                  "striped reassembly is bit-identical to the "
                  "unstriped path: every cell's digest equals the "
                  "width-1 digest, both transports",
                  bool(digests) and len(set(digests)) == 1, "wcb"),
        ]
    return claims


# ---------------------------------------------------------------------------
# tails — replicated dispatch under straggler plans (repro.bench.tailsbench)
# ---------------------------------------------------------------------------


def _tails_cell(table: ExperimentTable, plan: str, k: int, col: str):
    for row in _serve_rows(table):
        if row["plan"] == plan and row["k"] == k:
            return row[col]
    return None


def _tails_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    anchors: List[Anchor] = []
    tls = tables.get("tls")
    if tls is not None:
        k1 = _tails_cell(tls, "straggler", 1, "TCP_p999_ms")
        k2 = _tails_cell(tls, "straggler", 2, "TCP_p999_ms")
        sv1 = _tails_cell(tls, "straggler", 1, "SocketVIA_p999_ms")
        sv2 = _tails_cell(tls, "straggler", 2, "SocketVIA_p999_ms")
        anchors += [
            Anchor("tails_tcp_p999_k1_ms",
                   "TCP p999 query latency under the straggler preset, "
                   "unreplicated (deterministic)",
                   k1, group="tls", unit="ms"),
            Anchor("tails_tcp_p999_k2_ms",
                   "TCP p999 query latency under the straggler preset "
                   "with k=2 hedged replication (deterministic)",
                   k2, group="tls", unit="ms"),
            Anchor("tails_tcp_p999_cut",
                   "k=2 p999 cut under stragglers, TCP (gate is >= 2x)",
                   ratio(k1, k2), group="tls", unit="x"),
            Anchor("tails_sv_p999_cut",
                   "k=2 p999 cut under stragglers, SocketVIA",
                   ratio(sv1, sv2), group="tls", unit="x"),
        ]
    tlc = tables.get("tlc")
    if tlc is not None:
        w1 = _tails_cell(tlc, "none", 1, "TCP_work_ms")
        w2 = _tails_cell(tlc, "none", 2, "TCP_work_ms")
        anchors += [
            Anchor("tails_overhead_ratio",
                   "no-fault executed-work ratio k=2 over k=1, TCP "
                   "(gate is <= 1.15x)",
                   ratio(w2, w1), group="tlc", unit="x"),
        ]
    return anchors


def _tails_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    claims: List[Claim] = []
    tls = tables.get("tls")
    if tls is not None:
        tcp1 = _tails_cell(tls, "straggler", 1, "TCP_p999_ms")
        tcp2 = _tails_cell(tls, "straggler", 2, "TCP_p999_ms")
        sv1 = _tails_cell(tls, "straggler", 1, "SocketVIA_p999_ms")
        sv2 = _tails_cell(tls, "straggler", 2, "SocketVIA_p999_ms")
        claims += [
            Claim("tails_tcp_p999_2x",
                  "k=2 hedged replication cuts the TCP p999 under the "
                  "straggler preset by >= 2x",
                  tcp1 is not None and tcp2 is not None
                  and tcp1 >= 2.0 * tcp2, "tls"),
            Claim("tails_sv_p999_2x",
                  "k=2 hedged replication cuts the SocketVIA p999 "
                  "under the straggler preset by >= 2x",
                  sv1 is not None and sv2 is not None
                  and sv1 >= 2.0 * sv2, "tls"),
        ]
    tlc = tables.get("tlc")
    if tlc is not None:
        rows = _serve_rows(tlc)
        overhead_ok = True
        for col in ("SocketVIA_work_ms", "TCP_work_ms"):
            w1 = _tails_cell(tlc, "none", 1, col)
            w2 = _tails_cell(tlc, "none", 2, col)
            if w1 is None or w2 is None or w2 > 1.15 * w1:
                overhead_ok = False
        claims += [
            Claim("tails_overhead_115",
                  "hedged k=2 costs <= 1.15x the unreplicated executed "
                  "work in the no-fault case, both transports",
                  overhead_ok, "tlc"),
            Claim("tails_conservation_exact",
                  "replica conservation is exact in every cell: "
                  "completed == dispatched - retracted, both transports",
                  bool(rows) and all(
                      r[f"{p}_completed"]
                      == r[f"{p}_dispatched"] - r[f"{p}_retracted"]
                      for r in rows for p in ("SocketVIA", "TCP")),
                  "tlc"),
            Claim("tails_replication_engages",
                  "replication actually engages under stragglers: some "
                  "k=2 replicas are retracted (first finisher won), "
                  "and unreplicated rows retract none",
                  all(r[f"{p}_retracted"] == 0
                      for r in rows for p in ("SocketVIA", "TCP")
                      if r["k"] == 1)
                  and any(r[f"{p}_retracted"] > 0
                          for r in rows for p in ("SocketVIA", "TCP")
                          if r["k"] >= 2 and r["plan"] == "straggler"),
                  "tlc"),
        ]
    return claims


def _no_anchors(tables: Dict[str, ExperimentTable]) -> List[Anchor]:
    return []


def _no_claims(tables: Dict[str, ExperimentTable]) -> List[Claim]:
    return []


#: The benchmark experiments, keyed by id (``bench run <id>``).
SUITES: Dict[str, BenchSuite] = {
    s.bench_id: s
    for s in (
        BenchSuite("fig02", "Message-size economics (Figure 2)",
                   ("2",), _fig02_anchors, _fig02_claims),
        BenchSuite("fig04", "Latency / bandwidth micro-benchmarks (Figure 4)",
                   ("4a", "4b"), _fig04_anchors, _fig04_claims),
        BenchSuite("fig07", "Partial-update latency under update-rate "
                   "guarantees (Figure 7)", ("7a", "7b"),
                   _no_anchors, _no_claims),
        BenchSuite("fig08", "Updates/s under latency guarantees (Figure 8)",
                   ("8a", "8b"), _no_anchors, _no_claims),
        BenchSuite("fig09", "Mixed query types vs response time (Figure 9)",
                   ("9a", "9b"), _no_anchors, _no_claims),
        BenchSuite("fig10", "Round-robin reaction time (Figure 10)",
                   ("10",), _fig10_anchors, _fig10_claims),
        BenchSuite("fig11", "Demand-driven scheduling under dynamic "
                   "slowdown (Figure 11)", ("11",),
                   _no_anchors, _fig11_claims),
        BenchSuite("chaos", "Figures 8 and 11 under calibrated fault "
                   "plans (fault injection + resilience)", ("c8", "c11"),
                   _chaos_anchors, _chaos_claims),
        BenchSuite("kernel", "Simulation-kernel throughput micro-benchmarks",
                   ("kernel",), _kernel_anchors, _kernel_claims),
        BenchSuite("sweep", "Point-sweep executor: serial vs parallel vs "
                   "cached wall clock", ("sweep",),
                   _sweep_anchors, _sweep_claims),
        BenchSuite("fluid", "Fluid-flow vs packet: transfer fidelity and "
                   "event economy", ("fluid",),
                   _fluid_anchors, _fluid_claims),
        BenchSuite("serve", "Open-loop multi-tenant serving: capacity, "
                   "SLO latency, and drops vs offered load",
                   ("serve", "serve_scale", "serve_par"),
                   _serve_anchors, _serve_claims),
        BenchSuite("wancache", "WAN block-cache tier: query latency vs "
                   "cache temperature, striped bulk throughput",
                   ("wcq", "wcb"),
                   _wancache_anchors, _wancache_claims),
        BenchSuite("tails", "Replicated dispatch for tail latency: "
                   "percentiles and conservation under straggler plans",
                   ("tls", "tlc"),
                   _tails_anchors, _tails_claims),
    )
}


def get_suite(bench_id: str) -> BenchSuite:
    """Look a suite up by id; accepts ``fig04``, ``04``, ``4``, ``fig4``,
    and non-figure suite ids (``kernel``) verbatim."""
    key = bench_id.lower()
    if key in SUITES:
        return SUITES[key]
    if not key.startswith("fig"):
        key = "fig" + key
    digits = key[3:]
    if digits.isdigit():
        key = f"fig{int(digits):02d}"
    if key not in SUITES:
        raise KeyError(
            f"unknown bench experiment {bench_id!r}; have {sorted(SUITES)}")
    return SUITES[key]


def suite_names() -> List[str]:
    """All experiment ids, sorted."""
    return sorted(SUITES)
