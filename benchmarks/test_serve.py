"""The serve suite: open-loop serving capacity, SLO latency, and drops
vs offered load (docs/SERVING.md), plus cost flatness vs cluster width.

Headline: both transports serve light load with zero drops, but TCP's
per-message cost saturates its shards near ~570 q/s while SocketVIA
keeps admitting well past it — at the top of the load axis TCP is
shedding a large fraction of the offered queries that SocketVIA still
serves.
"""

from conftest import check_suite, run_once
from repro.bench.suites import get_panel


def test_serve_capacity_vs_load(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("serve").plan(quick))
    emit(table)
    check_suite("serve", {"serve": table})
    rows = [dict(zip(table.columns, r)) for r in table.rows]
    poisson = [r for r in rows if r["arrival"] == "poisson"]
    # Open loop: the offered schedule never depends on the transport.
    for row in rows:
        assert row["offered_sv"] == row["offered_tcp"]
    # Throughput never exceeds what was offered.
    horizon = 0.02 if quick else 0.05
    for row in rows:
        assert row["SocketVIA_qps"] <= row["offered_sv"] / horizon * 1.01
    # Drop rate is monotone in offered load for both transports.
    for col in ("SocketVIA_drop_rate", "TCP_drop_rate"):
        drops = [r[col] for r in poisson]
        assert drops == sorted(drops)


def test_serve_scale_flatness(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("serve_scale").plan(quick))
    emit(table)
    check_suite("serve", {"serve_scale": table})
    # Wider cluster, proportionally more completions: the aggregate
    # offered load grows with the shard count.
    for col in ("SocketVIA_completed", "TCP_completed"):
        completed = table.column(col)
        assert completed == sorted(completed)
        assert completed[-1] > completed[0]
