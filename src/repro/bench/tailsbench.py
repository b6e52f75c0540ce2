"""The ``tails`` suite: replicated dispatch under straggler plans.

Two panels over the same cells (docs/TAILS.md):

* ``tls`` — end-to-end query latency percentiles (p50 / p99 / p999,
  exact nearest-rank over every query) for each fault plan x
  replication factor, TCP vs SocketVIA side by side.  The headline
  claim gates the k=2 p999 cut under the ``straggler`` preset at
  >= 2x for TCP.
* ``tlc`` — the cost and conservation ledger of the same runs:
  executed worker core-time (winner compute plus cancelled-loser
  partials), replicas dispatched / completed / retracted, and hedges
  sent.  The overhead claim bounds no-fault k=2 executed work at
  <= 1.15x the unreplicated run; the conservation claim requires
  ``completed == dispatched - retracted`` exactly in every cell.

Both panels decompose into the *same* cache-addressable points (one
per plan x k x protocol — ``tlc`` reuses ``tls``'s entries), so
``bench run tails --jobs N`` parallelizes per cell and reruns are
cache hits.  Every column is simulated time or exact bookkeeping — no
wall-clock columns — so the comparator gates the whole record.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.tails import TailsConfig, run_tails
from repro.bench.executor import Point, PointPlan
from repro.bench.records import ExperimentTable, ratio
from repro.bench.suites import Anchor, BenchSuite, Claim, Panel, _rows

__all__ = [
    "tails_cell",
    "tls_points",
    "tlc_points",
    "TAILS_PLANS",
    "TAILS_KS",
    "TAILS_WORKERS",
    "TAILS_QUERIES",
    "TAILS_RATE",
    "TAILS_SEED",
    "BENCH_SUITES",
]

#: Fault plans the panels sweep (presets in ``repro.faults.presets``).
TAILS_PLANS = ("none", "straggler")
#: Replication factors of the sweep.
TAILS_KS = (1, 2, 3)
TAILS_WORKERS = 6
TAILS_QUERIES = 400
#: Offered load (queries/s): ~0.8 utilization for TCP with protocol
#: overhead, lower for SocketVIA — queues form but never diverge.
TAILS_RATE = 3200.0
TAILS_SEED = 29

_PROTOCOLS = ("socketvia", "tcp")

_TLS_NOTE = (
    "open-loop Poisson queries, hedged replication (replica k>1 "
    "dispatched only if the query is undecided hedge_us after "
    "arrival); latency is collector arrival minus scheduled arrival; "
    "percentiles are exact nearest-rank over every query"
)
_TLC_NOTE = (
    "work_ms counts executed worker core-time including cancelled-"
    "loser partials; conservation is exact per cell: completed == "
    "dispatched - retracted"
)


def tails_cell(protocol: str, plan: str, k: int, n_workers: int,
               n_queries: int, rate: float, seed: int) -> List[Any]:
    """Point: one (protocol, fault plan, replication factor) run.

    Returns ``[p50_ms, p99_ms, p999_ms, work_ms, dispatched,
    completed, retracted, hedges]``.
    """
    from repro.faults.plan import injecting
    from repro.faults.presets import get_preset

    with injecting(get_preset(plan)):
        result = run_tails(TailsConfig(
            protocol=protocol,
            k=int(k),
            n_workers=int(n_workers),
            n_queries=int(n_queries),
            rate=float(rate),
            seed=int(seed),
        ))
    return [
        float(result.latency_percentile(50) * 1e3),
        float(result.latency_percentile(99) * 1e3),
        float(result.latency_percentile(99.9) * 1e3),
        float(result.work_executed * 1e3),
        int(result.dispatched),
        int(result.completed),
        int(result.retracted),
        int(result.hedges_sent),
    ]


def _tls_table() -> ExperimentTable:
    return ExperimentTable(
        "tls",
        "Query latency percentiles vs fault plan and replication factor",
        ["plan", "k",
         "SocketVIA_p50_ms", "TCP_p50_ms",
         "SocketVIA_p99_ms", "TCP_p99_ms",
         "SocketVIA_p999_ms", "TCP_p999_ms"],
    )


def _tlc_table() -> ExperimentTable:
    return ExperimentTable(
        "tlc",
        "Replication cost and conservation ledger per plan and k",
        ["plan", "k",
         "SocketVIA_work_ms", "TCP_work_ms",
         "SocketVIA_dispatched", "TCP_dispatched",
         "SocketVIA_completed", "TCP_completed",
         "SocketVIA_retracted", "TCP_retracted",
         "SocketVIA_hedges", "TCP_hedges"],
    )


def _axis(plans, ks):
    return [(plan, int(k)) for plan in plans for k in ks]


def _tls_row(plan: str, k: int, sv: List[Any], tcp: List[Any]) -> List[Any]:
    return [plan, k, sv[0], tcp[0], sv[1], tcp[1], sv[2], tcp[2]]


def _tlc_row(plan: str, k: int, sv: List[Any], tcp: List[Any]) -> List[Any]:
    return [plan, k, sv[3], tcp[3], sv[4], tcp[4], sv[5], tcp[5],
            sv[6], tcp[6], sv[7], tcp[7]]


def _points(plans, ks, n_workers, n_queries, rate, seed) -> List[Point]:
    # Both panels share one point per cell (figure id "tls"), so the
    # ``tlc`` plan resolves entirely from ``tls``'s cache entries.
    return [
        Point("tls", tails_cell,
              {"protocol": proto, "plan": plan, "k": int(k),
               "n_workers": int(n_workers), "n_queries": int(n_queries),
               "rate": float(rate), "seed": int(seed)})
        for plan, k in _axis(plans, ks)
        for proto in _PROTOCOLS
    ]


def tls_points(
    plans=TAILS_PLANS,
    ks=TAILS_KS,
    n_workers: int = TAILS_WORKERS,
    n_queries: int = TAILS_QUERIES,
    rate: float = TAILS_RATE,
    seed: int = TAILS_SEED,
) -> PointPlan:
    """``tls`` as one point per (plan, k, protocol)."""
    axis = _axis(plans, ks)
    points = _points(plans, ks, n_workers, n_queries, rate, seed)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _tls_table()
        for i, (plan, k) in enumerate(axis):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(*_tls_row(plan, k, sv, tcp))
        table.add_note(_TLS_NOTE)
        return table

    return PointPlan("tls", points, merge)


def tlc_points(
    plans=TAILS_PLANS,
    ks=TAILS_KS,
    n_workers: int = TAILS_WORKERS,
    n_queries: int = TAILS_QUERIES,
    rate: float = TAILS_RATE,
    seed: int = TAILS_SEED,
) -> PointPlan:
    """``tlc`` over the same points as ``tls`` (shared cache entries)."""
    axis = _axis(plans, ks)
    points = _points(plans, ks, n_workers, n_queries, rate, seed)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _tlc_table()
        for i, (plan, k) in enumerate(axis):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(*_tlc_row(plan, k, sv, tcp))
        table.add_note(_TLC_NOTE)
        return table

    return PointPlan("tlc", points, merge)


# ---------------------------------------------------------------------------
# The tails suite: anchors, claims, and panels
# ---------------------------------------------------------------------------


def _tails_cell(table: ExperimentTable, plan: str, k: int, col: str):
    for row in _rows(table):
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
        rows = _rows(tlc)
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


BENCH_SUITES = (
    BenchSuite("tails", "Replicated dispatch for tail latency: "
               "percentiles and conservation under straggler plans", (
        # Both panels share one point per cell, so tlc resolves from
        # tls's cache entries.  Quick mode drops k=3 and shrinks the
        # query schedule — CI's suite-smoke job runs exactly those
        # axes; the straggler preset's fault windows repeat every
        # 25 ms, so the quick horizon (~37 ms) still sees both
        # straggler mechanisms.
        Panel("tls", tls_points,
              quick_kwargs={"ks": [1, 2], "n_queries": 120}),
        Panel("tlc", tlc_points,
              quick_kwargs={"ks": [1, 2], "n_queries": 120}),
    ), _tails_anchors, _tails_claims),
)
