"""The wancache suite: query latency vs cache temperature across WAN
block-cache placements, and striped bulk throughput vs stripe width
(docs/CACHING.md).

Headline: a hot edge cache answers queries several times faster than a
cold one (the WAN round trip disappears), and striping a bulk read
across 4 connections recovers the bandwidth a single 256 KiB window
strands on the high-BDP OC-12 path — while reassembly stays
bit-identical at every width.
"""

from conftest import check_suite, run_once
from repro.bench.suites import get_panel


def test_wancache_query_sweep(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("wcq").plan(quick))
    emit(table)
    check_suite("wancache", {"wcq": table})
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    # Hit rates are temperature facts, independent of the transport.
    for row in rows:
        assert row["SocketVIA_hit_rate"] == row["TCP_hit_rate"]
    # Hot queries never cross the WAN: latency is flat in stripe width.
    for col in ("SocketVIA_mean_ms", "TCP_mean_ms"):
        hot = [r[col] for r in rows if r["temperature"] == "hot"]
        assert max(hot) - min(hot) < 1e-6 * max(hot)


def test_wancache_bulk_sweep(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("wcb").plan(quick))
    emit(table)
    check_suite("wancache", {"wcb": table})
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    # Reassembly is bit-identical at every width, for both transports.
    digests = {r["SocketVIA_digest"] for r in rows}
    digests |= {r["TCP_digest"] for r in rows}
    assert len(digests) == 1
    # More stripes never hurt SocketVIA on the high-BDP path.
    mbps = [r["SocketVIA_MBps"] for r in rows]
    assert mbps == sorted(mbps)
