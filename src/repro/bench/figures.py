"""Per-figure experiments and the paper-figure suites.

One ``*_points()`` function per table/figure in the paper's evaluation
(Section 5).  Each figure is a sweep of *independent* simulation
points, so the function returns a
:class:`~repro.bench.executor.PointPlan`: a list of pure
:class:`~repro.bench.executor.Point` work items (module-level point
functions, which pickle by reference across a process pool and key a
content-addressed result cache) plus a merge that assembles an
:class:`~repro.bench.records.ExperimentTable` whose rows/series mirror
what the paper plots.  The benchmark suite under ``benchmarks/`` runs
these; so can users, directly::

    from repro.bench import figures
    print(figures.fig4a_points().run().render())

Every such function accepts scale parameters so CI can run a quick variant;
the defaults regenerate the full figures.  All runs are deterministic:
``tests/test_bench_executor.py`` holds the process pool and the cache
to :meth:`~repro.bench.executor.PointPlan.run`'s table, bit for bit.

The module ends with its suite declarations (``fig02`` .. ``fig11``
and ``chaos``): panels with their full and quick axes, plus the
anchor and claim extractors that judge a run.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.apps.dataset import PAPER_IMAGE_BYTES
from repro.apps.loadbalance import (
    LoadBalanceConfig,
    paper_block_size,
    run_loadbalance,
)
from repro.apps.planning import (
    PipelinePlan,
    plan_block_for_latency,
    plan_block_for_rate,
)
from repro.apps.queries import mixed_query_workload, steady_rate_workload
from repro.apps.vizserver import (
    VizServerConfig,
    measure_max_update_rate,
    run_vizserver,
)
from repro.bench.executor import Point, PointPlan
from repro.bench.microbench import (
    ping_pong_latency,
    streaming_bandwidth,
    via_ping_pong_latency,
    via_streaming_bandwidth,
)
from repro.bench.records import ExperimentTable, ratio
from repro.bench.suites import Anchor, BenchSuite, Claim, Panel, _cell
from repro.cluster.hetero import RandomSlowdown, StaticSlowdown
from repro.net.calibration import get_model
from repro.sim.units import bytes_per_sec_to_mbps, to_usec, usec

__all__ = [
    "fig2_points",
    "fig4a_points",
    "fig4b_points",
    "fig7_points",
    "fig8_points",
    "fig9_points",
    "fig10_points",
    "fig11_points",
    "chaos8_points",
    "chaos11_points",
    "BENCH_SUITES",
    "MICRO_SIZES_LATENCY",
    "MICRO_SIZES_BANDWIDTH",
    "FIG7_RATES",
    "FIG8_BOUNDS_US",
    "FIG9_FRACTIONS",
    "FIG10_FACTORS",
    "FIG11_PROBABILITIES",
    "FIG11_FACTORS",
    "CHAOS8_BOUNDS_US",
    "CHAOS11_PROBABILITIES",
    "CHAOS11_FACTOR",
]

#: Figure 4(a) x-axis: 4 bytes .. 4 KB.
MICRO_SIZES_LATENCY = [4, 16, 64, 256, 1024, 2048, 4096]
#: Figure 4(b) x-axis: 4 bytes .. 64 KB.
MICRO_SIZES_BANDWIDTH = [64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
#: Figure 7 x-axis (updates per second).
FIG7_RATES = [4.0, 3.75, 3.5, 3.25, 3.0, 2.75, 2.5, 2.25, 2.0]
#: Figure 8 x-axis (partial-update latency guarantee, microseconds).
FIG8_BOUNDS_US = [1000, 900, 800, 700, 600, 500, 400, 300, 200, 100]
#: Figure 9 x-axis (fraction of complete-update queries).
FIG9_FRACTIONS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
#: Figure 10 x-axis (factor of heterogeneity).
FIG10_FACTORS = [2, 4, 10]
#: Figure 11 axes.
FIG11_PROBABILITIES = [0.1, 0.3, 0.5, 0.7, 0.9]
FIG11_FACTORS = [2, 4, 8]

#: The slow worker both load-balance figures perturb.
_SLOW_INDEX = 2


# ---------------------------------------------------------------------------
# Figure 2: the message-size economics behind data repartitioning
# ---------------------------------------------------------------------------


_FIG2_ROW_LABELS = [
    "U1 (kernel sockets size for B, bytes)",
    "U2 (high-perf substrate size for B, bytes)",
    "L1 = kernel latency at U1 (us)",
    "L2 = substrate latency at U1 (us)",
    "L3 = substrate latency at U2 (us)",
]

_FIG2_NOTE = (
    "direct improvement L1->L2 (faster wire at the same chunking), "
    "indirect improvement L2->L3 (repartitioning to U2)"
)


def _fig2_table(required_bandwidth_mbps: float) -> ExperimentTable:
    return ExperimentTable(
        "fig2",
        f"Message-size economics at required bandwidth B = "
        f"{required_bandwidth_mbps:.0f} Mbps",
        ["quantity", "value"],
    )


def fig2_economics(required_bandwidth_mbps: float) -> List[float]:
    """Point: the five Figure-2 quantities ``[U1, U2, L1, L2, L3]``."""
    from repro.sim.units import mbps_to_bytes_per_sec

    tcp = get_model("tcp")
    sv = get_model("socketvia")
    target = mbps_to_bytes_per_sec(required_bandwidth_mbps)
    u1 = tcp.size_for_bandwidth(target)
    u2 = sv.size_for_bandwidth(target)
    return [
        int(u1),
        int(u2),
        float(to_usec(tcp.des_message_latency(u1))),
        float(to_usec(sv.des_message_latency(u1))),
        float(to_usec(sv.des_message_latency(u2))),
    ]


def _fig2_merge(required_bandwidth_mbps: float, values: List[float]) -> ExperimentTable:
    table = _fig2_table(required_bandwidth_mbps)
    for label, value in zip(_FIG2_ROW_LABELS, values):
        table.add_row(label, value)
    table.add_note(_FIG2_NOTE)
    return table


def fig2_points(required_bandwidth_mbps: float = 450.0) -> PointPlan:
    """Figure 2 (conceptual, here with calibrated numbers): the message
    sizes U1 (kernel sockets) and U2 (high-performance substrate) at
    which each transport attains a required bandwidth B, and the
    latency improvements L1 -> L2 (same size, faster substrate) -> L3
    (substrate at its own smaller size).

    A single-point plan: a closed-form model evaluation with no sweep
    axes, so there is no quick variant — quick and full runs are the
    same table (see the exemption note on the ``2`` panel below).
    """
    points = [Point("2", fig2_economics,
                    {"required_bandwidth_mbps": float(required_bandwidth_mbps)})]
    return PointPlan(
        "2", points,
        lambda values: _fig2_merge(required_bandwidth_mbps, values[0]))


# ---------------------------------------------------------------------------
# Figure 4: micro-benchmarks
# ---------------------------------------------------------------------------


_FIG4A_NOTE = "paper: SocketVIA 9.5 us, ~5x below TCP"
_FIG4B_NOTE = "paper peaks: VIA 795, SocketVIA 763, TCP 510 Mbps"


def _fig4a_table() -> ExperimentTable:
    return ExperimentTable(
        "fig4a",
        "Micro-benchmark latency (us) vs message size",
        ["msg_bytes", "VIA", "SocketVIA", "TCP"],
    )


def _fig4b_table() -> ExperimentTable:
    return ExperimentTable(
        "fig4b",
        "Micro-benchmark bandwidth (Mbps) vs message size",
        ["msg_bytes", "VIA", "SocketVIA", "TCP"],
    )


def fig4a_size(size: int) -> List[float]:
    """Point: one-way latency (us) of the three transports at *size*."""
    return [
        float(to_usec(via_ping_pong_latency(size))),
        float(to_usec(ping_pong_latency("socketvia", size))),
        float(to_usec(ping_pong_latency("tcp", size))),
    ]


def fig4b_size(size: int) -> List[float]:
    """Point: streaming bandwidth (Mbps) of the three transports."""
    return [
        float(bytes_per_sec_to_mbps(via_streaming_bandwidth(size))),
        float(bytes_per_sec_to_mbps(streaming_bandwidth("socketvia", size))),
        float(bytes_per_sec_to_mbps(streaming_bandwidth("tcp", size))),
    ]


def _fig4_points(figure: str, fn, sizes, table_fn, note) -> PointPlan:
    sizes = [int(s) for s in sizes]
    points = [Point(figure, fn, {"size": s}) for s in sizes]

    def merge(values: List[Any]) -> ExperimentTable:
        table = table_fn()
        for size, cells in zip(sizes, values):
            table.add_row(size, *cells)
        table.add_note(note)
        return table

    return PointPlan(figure, points, merge)


def fig4a_points(sizes=None) -> PointPlan:
    """Figure 4(a): one-way latency vs message size, three transports;
    one point per message size."""
    return _fig4_points("4a", fig4a_size, sizes or MICRO_SIZES_LATENCY,
                        _fig4a_table, _FIG4A_NOTE)


def fig4b_points(sizes=None) -> PointPlan:
    """Figure 4(b): streaming bandwidth (Mbps) vs message size; one
    point per message size."""
    return _fig4_points("4b", fig4b_size, sizes or MICRO_SIZES_BANDWIDTH,
                        _fig4b_table, _FIG4B_NOTE)


# ---------------------------------------------------------------------------
# Figure 7: average partial-update latency under update-rate guarantees
# ---------------------------------------------------------------------------


def _fig7_point(protocol: str, block: int, rate: float, compute: float, frames: int):
    cfg = VizServerConfig(
        protocol=protocol, block_bytes=block, compute_ns_per_byte=compute
    )
    workload = steady_rate_workload(
        cfg.dataset(), rate=rate, duration=frames / rate + 1e-3, partial_every=1
    )
    res = run_vizserver(cfg, workload)
    return (
        to_usec(res.latency("partial").mean),
        res.achieved_update_rate,
    )


def _fig7_table(compute_ns_per_byte: float) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    return ExperimentTable(
        f"fig7{'b' if compute_ns_per_byte else 'a'}",
        f"Avg partial-update latency (us) with update/s guarantees — {variant}",
        ["updates_per_sec", "tcp_block", "TCP", "SocketVIA", "dr_block",
         "SocketVIA_DR", "tcp_rate_achieved", "dr_rate_achieved"],
    )


def _fig7_add_notes(table: ExperimentTable) -> ExperimentTable:
    improvements = [
        (ratio(t, s), ratio(t, d))
        for t, s, d in zip(table.column("TCP"), table.column("SocketVIA"),
                           table.column("SocketVIA_DR"))
        if t is not None
    ]
    if improvements:
        best_no_dr = max((r for r, _ in improvements if r), default=None)
        best_dr = max((r for _, r in improvements if r), default=None)
        table.add_note(
            f"best improvement: {best_no_dr:.1f}x without repartitioning, "
            f"{best_dr:.1f}x with (paper: >3.5x / >10x for (a), >4x / >12x for (b))"
        )
    table.add_note("'--' = no block size meets the guarantee (drop-out)")
    return table


def fig7_rate(rate: float, compute_ns_per_byte: float, frames: int) -> List[Any]:
    """Point: one Figure-7 row (both transports + repartitioning) at *rate*."""
    tcp_plan = PipelinePlan(model=get_model("tcp"),
                            compute_ns_per_byte=compute_ns_per_byte)
    sv_plan = PipelinePlan(model=get_model("socketvia"),
                           compute_ns_per_byte=compute_ns_per_byte)
    b_tcp = plan_block_for_rate(tcp_plan, rate)
    b_sv = plan_block_for_rate(sv_plan, rate)
    tcp_lat = sv_lat = dr_lat = tcp_rate = dr_rate = None
    if b_tcp is not None:
        tcp_lat, tcp_rate = _fig7_point("tcp", b_tcp, rate,
                                        compute_ns_per_byte, frames)
        sv_lat, _ = _fig7_point("socketvia", b_tcp, rate,
                                compute_ns_per_byte, frames)
    if b_sv is not None:
        dr_lat, dr_rate = _fig7_point("socketvia", b_sv, rate,
                                      compute_ns_per_byte, frames)

    def _f(x):
        return None if x is None else float(x)

    return [b_tcp, _f(tcp_lat), _f(sv_lat), b_sv, _f(dr_lat),
            _f(tcp_rate), _f(dr_rate)]


def fig7_points(
    compute_ns_per_byte: float = 0.0,
    rates=None,
    frames: int = 3,
) -> PointPlan:
    """Figure 7: partial-update latency while guaranteeing a full-update
    rate.  Series: TCP (blocks planned for TCP), SocketVIA at TCP's
    blocks, SocketVIA with Data Repartitioning (its own blocks).

    ``compute_ns_per_byte=0`` reproduces 7(a); 18.0 reproduces 7(b).
    One point per guaranteed update rate.
    """
    rates = [float(r) for r in (rates or FIG7_RATES)]
    figure = "7b" if compute_ns_per_byte else "7a"
    points = [
        Point(figure, fig7_rate,
              {"rate": rate, "compute_ns_per_byte": float(compute_ns_per_byte),
               "frames": int(frames)})
        for rate in rates
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig7_table(compute_ns_per_byte)
        for rate, cells in zip(rates, values):
            table.add_row(rate, *cells)
        return _fig7_add_notes(table)

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 8: updates/s under partial-update latency guarantees
# ---------------------------------------------------------------------------


_FIG8_NOTE = (
    "paper: TCP drops out at the 100 us guarantee; SocketVIA stays near peak"
)


def _fig8_table(compute_ns_per_byte: float) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    return ExperimentTable(
        f"fig8{'b' if compute_ns_per_byte else 'a'}",
        f"Updates/s with latency guarantees — {variant}",
        ["latency_us", "tcp_block", "TCP", "SocketVIA", "dr_block", "SocketVIA_DR"],
    )


def _fig8_blocks(compute_ns_per_byte: float, bounds_us) -> List[tuple]:
    """Per-bound planned blocks ``(bound, b_tcp, b_sv)`` — analytic."""
    tcp_plan = PipelinePlan(model=get_model("tcp"),
                            compute_ns_per_byte=compute_ns_per_byte)
    sv_plan = PipelinePlan(model=get_model("socketvia"),
                           compute_ns_per_byte=compute_ns_per_byte)
    return [
        (bound,
         plan_block_for_latency(tcp_plan, usec(bound)),
         plan_block_for_latency(sv_plan, usec(bound)))
        for bound in bounds_us
    ]


def fig8_rate(protocol: str, block: int, compute_ns_per_byte: float,
              frames: int) -> float:
    """Point: max sustainable update rate of *protocol* at *block*."""
    cfg = VizServerConfig(
        protocol=protocol, block_bytes=block,
        compute_ns_per_byte=compute_ns_per_byte,
    )
    return float(measure_max_update_rate(cfg, frames=frames))


def fig8_points(
    compute_ns_per_byte: float = 0.0,
    bounds_us=None,
    frames: int = 3,
) -> PointPlan:
    """Figure 8: maximum full updates/s while a partial-update chunk
    fetch stays under the latency guarantee.  Series as Figure 7.

    One point per **unique** (protocol, block) pair: planning is
    analytic and happens here, and different latency bounds that plan
    the same block share one measurement point.
    """
    bounds_us = [int(b) for b in (bounds_us or FIG8_BOUNDS_US)]
    figure = "8b" if compute_ns_per_byte else "8a"
    blocks = _fig8_blocks(compute_ns_per_byte, bounds_us)
    pairs: List[tuple] = []
    for _, b_tcp, b_sv in blocks:
        for protocol, block in (("tcp", b_tcp), ("socketvia", b_tcp),
                                ("socketvia", b_sv)):
            if block and (protocol, block) not in pairs:
                pairs.append((protocol, block))
    points = [
        Point(figure, fig8_rate,
              {"protocol": protocol, "block": int(block),
               "compute_ns_per_byte": float(compute_ns_per_byte),
               "frames": int(frames)})
        for protocol, block in pairs
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        rate = dict(zip(pairs, values))
        table = _fig8_table(compute_ns_per_byte)
        for bound, b_tcp, b_sv in blocks:
            table.add_row(
                bound, b_tcp,
                rate[("tcp", b_tcp)] if b_tcp else None,
                rate[("socketvia", b_tcp)] if b_tcp else None,
                b_sv,
                rate[("socketvia", b_sv)] if b_sv else None)
        table.add_note(_FIG8_NOTE)
        return table

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 9: mixed query types vs average response time
# ---------------------------------------------------------------------------


_FIG9_NOTE = (
    "paper (150 ms budget, 64 partitions): TCP tolerates ~60% complete "
    "queries, SocketVIA ~90%"
)


def _fig9_table(compute_ns_per_byte: float, partitions) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    columns = ["fraction_complete"]
    for proto in ("SocketVIA", "TCP"):
        for parts in partitions:
            label = "none" if parts == 1 else str(parts)
            columns.append(f"{proto}_p{label}")
    return ExperimentTable(
        f"fig9{'b' if compute_ns_per_byte else 'a'}",
        f"Avg response time (ms) vs fraction of complete updates — {variant}",
        columns,
    )


def fig9_cell(fraction: float, protocol: str, partitions: int,
              compute_ns_per_byte: float, n_queries: int, seed: int) -> float:
    """Point: mean response time (ms) of one (mix, protocol, partitioning)."""
    block = PAPER_IMAGE_BYTES // partitions
    cfg = VizServerConfig(
        protocol=protocol,
        block_bytes=block,
        compute_ns_per_byte=compute_ns_per_byte,
        closed_loop=True,
    )
    rng = np.random.default_rng(seed)
    workload = mixed_query_workload(
        cfg.dataset(), n_queries, fraction, rng, exact=True
    )
    res = run_vizserver(cfg, workload)
    return float(res.latency("any").mean * 1e3)


def fig9_points(
    compute_ns_per_byte: float = 0.0,
    fractions=None,
    partitions=(1, 8, 64),
    n_queries: int = 10,
    seed: int = 31,
) -> PointPlan:
    """Figure 9: average query response time (ms) vs the fraction of
    complete-update queries, for several dataset partitionings.

    Partitioning 1 = "No Partitions" (every query fetches the whole
    16 MB image); zoom queries need 4 chunks when partitioned.  One
    point per (mix fraction, protocol, partitioning).
    """
    fractions = [float(f) for f in (fractions or FIG9_FRACTIONS)]
    partitions = tuple(int(p) for p in partitions)
    figure = "9b" if compute_ns_per_byte else "9a"
    points = [
        Point(figure, fig9_cell,
              {"fraction": frac, "protocol": proto, "partitions": parts,
               "compute_ns_per_byte": float(compute_ns_per_byte),
               "n_queries": int(n_queries), "seed": int(seed)})
        for frac in fractions
        for proto in ("socketvia", "tcp")
        for parts in partitions
    ]
    per_row = 2 * len(partitions)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig9_table(compute_ns_per_byte, partitions)
        for i, frac in enumerate(fractions):
            table.add_row(frac, *values[i * per_row:(i + 1) * per_row])
        table.add_note(_FIG9_NOTE)
        return table

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 10: round-robin reaction time vs heterogeneity factor
# ---------------------------------------------------------------------------


_FIG10_NOTE = "paper: SocketVIA reacts ~8x faster (16 KB vs 2 KB blocks)"


def _fig10_table() -> ExperimentTable:
    return ExperimentTable(
        "fig10",
        "Load-balancer reaction time (us) to heterogeneity — Round-Robin",
        ["factor", "SocketVIA", "TCP", "ratio_tcp_over_sv"],
    )


def fig10_cell(factor: int, protocol: str, total_bytes: int,
               compute_ns_per_byte: float) -> float:
    """Point: RR reaction time (us) of one (factor, protocol) pair."""
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="rr",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: StaticSlowdown(factor)},
    )
    res = run_loadbalance(cfg)
    return float(to_usec(res.reaction_time(_SLOW_INDEX)))


def fig10_points(
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Figure 10: how long the RR balancer stays committed to a slow
    node, vs the factor of heterogeneity.  Blocks: 16 KB (TCP) / 2 KB
    (SocketVIA) — the perfect-pipelining sizes.

    Worker computation defaults to 90 ns/byte (the Figure 10/11 workers
    process each block several times — also the paper's slowdown
    emulation mechanism) so that both transports are compute-bound and
    the reaction time reflects block processing, not the balancer's own
    send path.  One point per (factor, protocol) pair.
    """
    factors = [int(f) for f in (factors or FIG10_FACTORS)]
    points = [
        Point("10", fig10_cell,
              {"factor": factor, "protocol": proto,
               "total_bytes": int(total_bytes),
               "compute_ns_per_byte": float(compute_ns_per_byte)})
        for factor in factors
        for proto in ("socketvia", "tcp")
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig10_table()
        for i, factor in enumerate(factors):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(factor, sv, tcp, ratio(tcp, sv))
        table.add_note(_FIG10_NOTE)
        return table

    return PointPlan("10", points, merge)


# ---------------------------------------------------------------------------
# Figure 11: demand-driven scheduling under dynamic slowdown
# ---------------------------------------------------------------------------


_FIG11_NOTE = (
    "paper: TCP tracks SocketVIA closely under DD; time rises with "
    "P(slow) and the heterogeneity factor"
)


def _fig11_table(factors) -> ExperimentTable:
    columns = ["prob_slow_pct"]
    for proto in ("SocketVIA", "TCP"):
        for f in factors:
            columns.append(f"{proto}({f})")
    return ExperimentTable(
        "fig11",
        "Execution time (us) under Demand-Driven scheduling, one dynamically slow node",
        columns,
    )


def fig11_cell(prob: float, factor: int, protocol: str, total_bytes: int,
               compute_ns_per_byte: float) -> float:
    """Point: DD execution time (us) with one dynamically slow node."""
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="dd",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: RandomSlowdown(factor, prob)},
    )
    res = run_loadbalance(cfg)
    return float(to_usec(res.execution_time))


def fig11_points(
    probabilities=None,
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Figure 11: execution time under demand-driven scheduling when one
    node is slow with a given probability per block.

    Defaults process half an image at 90 ns/byte (the workers do the
    visualization work repeatedly per block, see DESIGN.md) so that the
    system is compute-bound for both transports — the regime where the
    paper observes "application performance using TCP is close to that
    of SocketVIA".  One point per (probability, protocol, factor) cell.
    """
    probabilities = [float(p) for p in (probabilities or FIG11_PROBABILITIES)]
    factors = [int(f) for f in (factors or FIG11_FACTORS)]
    points = [
        Point("11", fig11_cell,
              {"prob": prob, "factor": factor, "protocol": proto,
               "total_bytes": int(total_bytes),
               "compute_ns_per_byte": float(compute_ns_per_byte)})
        for prob in probabilities
        for proto in ("socketvia", "tcp")
        for factor in factors
    ]
    per_row = 2 * len(factors)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig11_table(factors)
        for i, prob in enumerate(probabilities):
            table.add_row(int(prob * 100),
                          *values[i * per_row:(i + 1) * per_row])
        table.add_note(_FIG11_NOTE)
        return table

    return PointPlan("11", points, merge)


# ---------------------------------------------------------------------------
# Chaos suite: Figures 8 and 11 re-measured under calibrated fault plans
# ---------------------------------------------------------------------------
#
# Not a paper figure: the chaos panels re-run two representative
# experiments under the named fault plans in ``repro.faults.presets``
# and place faulted and fault-free legs side by side, so the committed
# baseline records how much performance fault injection costs and that
# the resilience machinery (graceful degradation, crash replay) keeps
# every run terminating.  Fault-free legs reuse the plain Figure 8/11
# point functions with identical params, so they share cache entries
# with the ``fig08``/``fig11`` suites; chaos legs carry their plan as a
# ``fault_plan`` param — the plan is part of the point's content, hence
# part of its cache key.


#: Chaos Figure 8 leg: latency bounds re-measured under chaos-fig8.
CHAOS8_BOUNDS_US = [1000, 400, 200]
#: Chaos Figure 11 leg: P(slow) axis, heterogeneity factor fixed at 4.
CHAOS11_PROBABILITIES = [0.1, 0.5, 0.9]
CHAOS11_FACTOR = 4

_CHAOS8_NOTE = (
    "chaos-fig8 plan: viz sink's cLAN receive side flaps 30 ms of every "
    "100 ms; clip host node04 computes 8x slower throughout (DD routes "
    "around it) — expect a bounded update-rate loss, not a collapse"
)
_CHAOS11_NOTE = (
    "chaos-fig11 plan: worker01 crashes at 10 ms and restarts at 30 ms; "
    "DD reroutes around the dead copy and its deferred blocks replay at "
    "restart — every block is still processed"
)


def _plan_dict(preset_name: str) -> Dict[str, Any]:
    from repro.faults import get_preset

    return get_preset(preset_name).to_dict()


def chaos8_rate(protocol: str, block: int, compute_ns_per_byte: float,
                frames: int, fault_plan: Dict[str, Any]) -> float:
    """Point: :func:`fig8_rate` measured under an injected fault plan."""
    from repro.faults import FaultPlan, injecting

    with injecting(FaultPlan.from_dict(fault_plan)):
        return fig8_rate(protocol, block, compute_ns_per_byte, frames)


def chaos11_cell(prob: float, factor: int, protocol: str, total_bytes: int,
                 compute_ns_per_byte: float,
                 fault_plan: Dict[str, Any]) -> List[float]:
    """Point: :func:`fig11_cell` under an injected fault plan.

    Returns ``[execution_time_us, crashed_share, peer_share]``:
    ``crashed_share`` is the fraction of all blocks the plan's crashed
    worker(s) processed, ``peer_share`` the per-worker average of the
    healthy workers that are neither crashed nor the figure's slow
    node.  Crashed and peer workers gain from worker-``_SLOW_INDEX``'s
    slowness symmetrically, so the crash shows as ``crashed_share <
    peer_share`` at every P(slow) — a comparison against the fair share
    1/n would drown in the slow-node effect on long runs.
    """
    from repro.faults import FaultPlan, injecting

    plan = FaultPlan.from_dict(fault_plan)
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="dd",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: RandomSlowdown(factor, prob)},
    )
    with injecting(plan):
        res = run_loadbalance(cfg)
    crashed_idx = [
        int(name[len("worker"):])
        for name, hf in plan.hosts.items()
        if hf.crash_at is not None and name.startswith("worker")
    ]
    peer_idx = [
        i for i in range(len(res.sent_counts))
        if i not in crashed_idx and i != _SLOW_INDEX
    ]
    total = sum(res.sent_counts)
    crashed = sum(res.sent_counts[i] for i in crashed_idx)
    peer = sum(res.sent_counts[i] for i in peer_idx)
    return [
        float(to_usec(res.execution_time)),
        crashed / total if total else 0.0,
        peer / (len(peer_idx) * total) if total and peer_idx else 0.0,
    ]


def _chaos8_table() -> ExperimentTable:
    return ExperimentTable(
        "c8",
        "Figure 8 updates/s (18 ns/B) — fault-free vs the chaos-fig8 plan",
        ["latency_us", "tcp_block", "TCP", "TCP_chaos",
         "sv_block", "SocketVIA", "SocketVIA_chaos"],
    )


def _chaos11_table() -> ExperimentTable:
    return ExperimentTable(
        "c11",
        "Figure 11 DD execution time (us), factor 4 — fault-free vs the "
        "chaos-fig11 plan",
        ["prob_slow_pct",
         "SocketVIA", "SocketVIA_chaos", "sv_crashed_share", "sv_peer_share",
         "TCP", "TCP_chaos", "tcp_crashed_share", "tcp_peer_share"],
    )


def chaos8_points(
    compute_ns_per_byte: float = 18.0,
    bounds_us=None,
    frames: int = 3,
) -> PointPlan:
    """Chaos panel c8: Figure 8 updates/s, fault-free next to the
    chaos-fig8 plan, per latency bound.  Fault-free legs are plain
    Figure 8 points (same fn, figure, and params — shared cache
    entries)."""
    bounds_us = [int(b) for b in (bounds_us or CHAOS8_BOUNDS_US)]
    plan_dict = _plan_dict("chaos-fig8")
    base_figure = "8b" if compute_ns_per_byte else "8a"
    blocks = _fig8_blocks(compute_ns_per_byte, bounds_us)
    triples: List[tuple] = []
    for _, b_tcp, b_sv in blocks:
        for protocol, block in (("tcp", b_tcp), ("socketvia", b_sv)):
            if block:
                for chaos in (False, True):
                    if (protocol, block, chaos) not in triples:
                        triples.append((protocol, block, chaos))
    points = []
    for protocol, block, chaos in triples:
        params = {"protocol": protocol, "block": int(block),
                  "compute_ns_per_byte": float(compute_ns_per_byte),
                  "frames": int(frames)}
        if chaos:
            points.append(Point("c8", chaos8_rate,
                                {**params, "fault_plan": plan_dict}))
        else:
            points.append(Point(base_figure, fig8_rate, params))

    def merge(values: List[Any]) -> ExperimentTable:
        rate = dict(zip(triples, values))
        table = _chaos8_table()
        for bound, b_tcp, b_sv in blocks:
            table.add_row(
                bound, b_tcp,
                rate[("tcp", b_tcp, False)] if b_tcp else None,
                rate[("tcp", b_tcp, True)] if b_tcp else None,
                b_sv,
                rate[("socketvia", b_sv, False)] if b_sv else None,
                rate[("socketvia", b_sv, True)] if b_sv else None)
        table.add_note(_CHAOS8_NOTE)
        return table

    return PointPlan("c8", points, merge)


def chaos11_points(
    probabilities=None,
    factor: int = CHAOS11_FACTOR,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Chaos panel c11: Figure 11's DD sweep, fault-free next to the
    chaos-fig11 plan (worker crash + restart mid-run).  Fault-free legs
    are plain Figure 11 points."""
    probabilities = [float(p)
                     for p in (probabilities or CHAOS11_PROBABILITIES)]
    factor = int(factor)
    plan_dict = _plan_dict("chaos-fig11")
    points = []
    for prob in probabilities:
        for proto in ("socketvia", "tcp"):
            params = {"prob": prob, "factor": factor, "protocol": proto,
                      "total_bytes": int(total_bytes),
                      "compute_ns_per_byte": float(compute_ns_per_byte)}
            points.append(Point("11", fig11_cell, params))
            points.append(Point("c11", chaos11_cell,
                                {**params, "fault_plan": plan_dict}))

    def merge(values: List[Any]) -> ExperimentTable:
        table = _chaos11_table()
        it = iter(values)
        for prob in probabilities:
            row = [int(prob * 100)]
            for _proto in ("socketvia", "tcp"):
                base = next(it)
                chaos = next(it)
                row += [base, chaos[0], chaos[1], chaos[2]]
            table.add_row(*row)
        table.add_note(_CHAOS11_NOTE)
        return table

    return PointPlan("c11", points, merge)


# ---------------------------------------------------------------------------
# fig02 anchors and claims — message-size economics
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
# fig04 anchors and claims — micro-benchmarks (the calibrated anchors)
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
# fig10 anchors and claims — round-robin reaction time
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
# fig11 claims — demand-driven scheduling under dynamic slowdown
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
    # Series columns run in factor order, smallest first.
    last = dict(zip(table.columns, table.rows[-1]))
    factor_slows = all(
        last[cols[0]] < last[cols[-1]] for cols in (sv_cols, tcp_cols))
    return [
        Claim("tcp_tracks_socketvia",
              "TCP within 15% of SocketVIA under demand-driven scheduling",
              close, "11"),
        Claim("time_rises_with_p_slow",
              "execution time rises with P(slow), every series",
              rising, "11"),
        Claim("time_rises_with_factor",
              "at the highest P(slow), each protocol's largest "
              "heterogeneity factor takes longer than its smallest",
              factor_slows, "11"),
    ]


# ---------------------------------------------------------------------------
# chaos anchors and claims — Figures 8 and 11 under calibrated fault
# plans (not a paper figure; gates the fault-injection and resilience
# machinery in repro.faults, see docs/RESILIENCE.md)
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
# The suites: panels with their full and quick axes
# ---------------------------------------------------------------------------

BENCH_SUITES = (
    BenchSuite("fig02", "Message-size economics (Figure 2)", (
        # fig2 is a closed-form model evaluation with no sweep axes, so
        # it is exempt from quick mode by design: quick and full runs
        # produce the same (instant) table.  Audited by
        # tests/test_bench_executor.py::test_fig2_quick_equals_full.
        Panel("2", fig2_points),
    ), _fig02_anchors, _fig02_claims),
    BenchSuite("fig04", "Latency / bandwidth micro-benchmarks (Figure 4)", (
        Panel("4a", fig4a_points,
              quick_kwargs={"sizes": [4, 256, 4096]}),
        Panel("4b", fig4b_points,
              quick_kwargs={"sizes": [2048, 16384, 65536]}),
    ), _fig04_anchors, _fig04_claims),
    BenchSuite("fig07", "Partial-update latency under update-rate "
               "guarantees (Figure 7)", (
        Panel("7a", fig7_points, {"compute_ns_per_byte": 0.0},
              {"rates": [4.0, 3.25, 2.0], "frames": 2}),
        Panel("7b", fig7_points, {"compute_ns_per_byte": 18.0},
              {"rates": [3.25, 2.0], "frames": 2}),
    )),
    BenchSuite("fig08", "Updates/s under latency guarantees (Figure 8)", (
        Panel("8a", fig8_points, {"compute_ns_per_byte": 0.0},
              {"bounds_us": [1000, 400, 100], "frames": 2}),
        Panel("8b", fig8_points, {"compute_ns_per_byte": 18.0},
              {"bounds_us": [1000, 400, 200], "frames": 2}),
    )),
    BenchSuite("fig09", "Mixed query types vs response time (Figure 9)", (
        Panel("9a", fig9_points, {"compute_ns_per_byte": 0.0},
              {"fractions": [0.0, 0.6, 1.0], "n_queries": 6}),
        Panel("9b", fig9_points, {"compute_ns_per_byte": 18.0},
              {"fractions": [0.0, 1.0], "n_queries": 6}),
    )),
    BenchSuite("fig10", "Round-robin reaction time (Figure 10)", (
        Panel("10", fig10_points,
              quick_kwargs={"factors": [2, 10],
                            "total_bytes": 4 * 1024 * 1024}),
    ), _fig10_anchors, _fig10_claims),
    BenchSuite("fig11", "Demand-driven scheduling under dynamic "
               "slowdown (Figure 11)", (
        # Quick axes are a corner of the full grid (same total_bytes),
        # so their cells equal the committed baseline's.
        Panel("11", fig11_points,
              quick_kwargs={"probabilities": [0.1, 0.9], "factors": [2, 8]}),
    ), claims=_fig11_claims),
    # Chaos panels: Figures 8 and 11 re-measured under the named fault
    # plans in repro.faults.presets, fault-free legs side by side
    # (those reuse the plain fig8/fig11 points, sharing their cache
    # entries).
    BenchSuite("chaos", "Figures 8 and 11 under calibrated fault "
               "plans (fault injection + resilience)", (
        Panel("c8", chaos8_points, {"compute_ns_per_byte": 18.0},
              {"bounds_us": [1000, 200], "frames": 2}),
        Panel("c11", chaos11_points,
              quick_kwargs={"probabilities": [0.1, 0.9],
                            "total_bytes": 2 * 1024 * 1024}),
    ), _chaos_anchors, _chaos_claims),
)
