"""The ``wancache`` suite: block-cache tier + striped WAN transfers.

Two panels (docs/CACHING.md):

* ``wcq`` — query latency over the WAN preset at every cache
  temperature (cold / warm / hot) x stripe width, TCP vs SocketVIA
  side by side, with exact hit rates.  The cache is edge-placed (the
  DPSS arrangement: the edge host is the WAN gateway, so misses are
  striped-fetched storage -> edge and forwarded over the LAN while
  hits skip the WAN entirely).  The headline claim gates the hot/cold
  speedup at >= 3x for SocketVIA at stripe width 4.
* ``wcb`` — bulk striped-read throughput vs stripe width on the
  high-BDP link, no cache tier.  Each cell carries its order-sensitive
  reassembly digest; the reassembly claim pins every cell's digest to
  the width-1 (unstriped) digest — striping changes wall clock, never
  bytes.

Both panels decompose into cache-addressable points exactly like the
figure sweeps, so ``bench run wancache --jobs N`` parallelizes per
cell and reruns are cache hits.  Every metric is simulated (latency,
MB/s of simulated time) or exact bookkeeping (hit rates, digests) —
no wall-clock columns — so the comparator gates the whole record.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.wancache import (
    WanBulkConfig,
    WanCacheConfig,
    run_wan_bulk,
    run_wan_queries,
)
from repro.bench.executor import Point, PointPlan
from repro.bench.records import ExperimentTable, ratio
from repro.bench.suites import Anchor, BenchSuite, Claim, Panel, _rows

__all__ = [
    "wcq_cell",
    "wcb_cell",
    "wcq_points",
    "wcb_points",
    "WANCACHE_TEMPERATURES",
    "WANCACHE_WIDTHS",
    "WANCACHE_BULK_WIDTHS",
    "WANCACHE_SEED",
    "BENCH_SUITES",
]

#: Cache temperatures of the query panel, coldest first.
WANCACHE_TEMPERATURES = ("cold", "warm", "hot")
#: Stripe widths of the query panel.
WANCACHE_WIDTHS = (1, 4, 8)
#: Stripe widths of the bulk panel.
WANCACHE_BULK_WIDTHS = (1, 2, 4, 8)
#: Query panel dataset: 64 x 64 KiB blocks, 6 x 8-block queries.
WANCACHE_BLOCKS = 64
WANCACHE_BLOCK_BYTES = 64 * 1024
WANCACHE_BLOCKS_PER_QUERY = 8
WANCACHE_QUERIES = 6
#: Bulk panel dataset: 64 x 256 KiB blocks (16 MiB per transfer).
WANCACHE_BULK_BLOCKS = 64
WANCACHE_BULK_BLOCK_BYTES = 256 * 1024
WANCACHE_SEED = 13

_PROTOCOLS = ("socketvia", "tcp")

_WCQ_NOTE = (
    "edge-placed cache (DPSS arrangement): misses are striped-fetched "
    "storage -> edge over the ~30 ms-RTT OC-12 WAN and forwarded over "
    "the LAN; hits never touch the WAN — hit rates are exact counts "
    "from the BlockCache, deterministic per cell"
)
_WCB_NOTE = (
    "one striped read of the whole block space; digest is the "
    "order-sensitive reassembly digest — equal digests mean the "
    "reassembled sequence is bit-identical to the unstriped path"
)


def wcq_cell(protocol: str, temperature: str, stripe: int,
             placement: str, n_blocks: int, block_bytes: int,
             blocks_per_query: int, n_queries: int,
             seed: int) -> List[float]:
    """Point: one (protocol, temperature, stripe-width) query run.

    Returns ``[mean_ms, p50_ms, hit_rate]``.
    """
    result = run_wan_queries(WanCacheConfig(
        protocol=protocol,
        temperature=temperature,
        stripe_width=int(stripe),
        placement=placement,
        n_blocks=int(n_blocks),
        block_bytes=int(block_bytes),
        blocks_per_query=int(blocks_per_query),
        n_queries=int(n_queries),
        seed=int(seed),
    ))
    return [
        float(result.mean_latency * 1e3),
        float(result.p50_latency * 1e3),
        float(result.hit_rate),
    ]


def wcb_cell(protocol: str, stripe: int, n_blocks: int,
             block_bytes: int, seed: int) -> List[Any]:
    """Point: one (protocol, stripe-width) bulk transfer.

    Returns ``[mb_per_s, digest]`` — the digest rides along so the
    reassembly claim can gate bit-identity from the cached record.
    """
    result = run_wan_bulk(WanBulkConfig(
        protocol=protocol,
        stripe_width=int(stripe),
        n_blocks=int(n_blocks),
        block_bytes=int(block_bytes),
        seed=int(seed),
    ))
    return [float(result.mb_per_s), result.digest]


def _wcq_table() -> ExperimentTable:
    return ExperimentTable(
        "wcq",
        "WAN query latency vs cache temperature and stripe width",
        ["temperature", "stripe",
         "SocketVIA_mean_ms", "TCP_mean_ms",
         "SocketVIA_p50_ms", "TCP_p50_ms",
         "SocketVIA_hit_rate", "TCP_hit_rate"],
    )


def _wcb_table() -> ExperimentTable:
    return ExperimentTable(
        "wcb",
        "Bulk striped-read throughput vs stripe width (high-BDP WAN)",
        ["stripe",
         "SocketVIA_MBps", "TCP_MBps",
         "SocketVIA_digest", "TCP_digest"],
    )


def _wcq_axis(temperatures, widths):
    return [(t, int(w)) for t in temperatures for w in widths]


def _wcq_row(temp: str, width: int, sv: List[float],
             tcp: List[float]) -> List[Any]:
    return [temp, width, sv[0], tcp[0], sv[1], tcp[1], sv[2], tcp[2]]


def wcq_points(
    temperatures=WANCACHE_TEMPERATURES,
    widths=WANCACHE_WIDTHS,
    placement: str = "edge",
    n_blocks: int = WANCACHE_BLOCKS,
    block_bytes: int = WANCACHE_BLOCK_BYTES,
    blocks_per_query: int = WANCACHE_BLOCKS_PER_QUERY,
    n_queries: int = WANCACHE_QUERIES,
    seed: int = WANCACHE_SEED,
) -> PointPlan:
    """``wcq`` as one point per (temperature, stripe, protocol)."""
    axis = _wcq_axis(temperatures, widths)
    points = [
        Point("wcq", wcq_cell,
              {"protocol": proto, "temperature": temp, "stripe": width,
               "placement": placement, "n_blocks": int(n_blocks),
               "block_bytes": int(block_bytes),
               "blocks_per_query": int(blocks_per_query),
               "n_queries": int(n_queries), "seed": int(seed)})
        for temp, width in axis
        for proto in _PROTOCOLS
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _wcq_table()
        for i, (temp, width) in enumerate(axis):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(*_wcq_row(temp, width, sv, tcp))
        table.add_note(_WCQ_NOTE)
        return table

    return PointPlan("wcq", points, merge)


def wcb_points(
    widths=WANCACHE_BULK_WIDTHS,
    n_blocks: int = WANCACHE_BULK_BLOCKS,
    block_bytes: int = WANCACHE_BULK_BLOCK_BYTES,
    seed: int = WANCACHE_SEED,
) -> PointPlan:
    """``wcb`` as one point per (stripe, protocol)."""
    widths = [int(w) for w in widths]
    points = [
        Point("wcb", wcb_cell,
              {"protocol": proto, "stripe": width,
               "n_blocks": int(n_blocks),
               "block_bytes": int(block_bytes), "seed": int(seed)})
        for width in widths
        for proto in _PROTOCOLS
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _wcb_table()
        for i, width in enumerate(widths):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(width, sv[0], tcp[0], sv[1], tcp[1])
        table.add_note(_WCB_NOTE)
        return table

    return PointPlan("wcb", points, merge)


# ---------------------------------------------------------------------------
# The wancache suite: anchors, claims, and panels
# ---------------------------------------------------------------------------


def _wcq_cell(table: ExperimentTable, temp: str, width: int, col: str):
    for row in _rows(table):
        if row["temperature"] == temp and row["stripe"] == width:
            return row[col]
    return None


def _wancache_headline_width(table: ExperimentTable) -> int:
    """The stripe width the headline speedup claim gates on: 4 when
    present (full and quick axes both carry it), else the widest."""
    widths = sorted({r["stripe"] for r in _rows(table)})
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
        rows = _rows(wcb)
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
        rows = _rows(wcq)
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
        rows = _rows(wcb)
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


BENCH_SUITES = (
    BenchSuite("wancache", "WAN block-cache tier: query latency vs "
               "cache temperature, striped bulk throughput", (
        # Quick mode drops the warm temperature and the widest stripes
        # and shrinks the dataset — CI's suite-smoke job runs exactly
        # those axes.  Quick keeps blocks_per_query at 8: a query must
        # overflow one stream's flow-control window (256 KiB) or
        # striping has nothing to recover and the striping claim loses
        # its margin.
        Panel("wcq", wcq_points,
              quick_kwargs={"temperatures": ["cold", "hot"],
                            "widths": [1, 4], "n_blocks": 32,
                            "n_queries": 3}),
        Panel("wcb", wcb_points,
              quick_kwargs={"widths": [1, 4], "n_blocks": 24,
                            "block_bytes": 128 * 1024}),
    ), _wancache_anchors, _wancache_claims),
)
