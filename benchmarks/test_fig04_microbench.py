"""Figure 4: latency and bandwidth micro-benchmarks.

Regenerates both panels and checks the paper's endpoints — ~9.5 us
SocketVIA latency, ~5x TCP/SocketVIA latency gap, the 795 / 763 / 510
Mbps bandwidth ordering — through the ``fig04`` suite's shared
anchor/claim extractors (one implementation with
``python -m repro bench run fig04``).
"""

from conftest import check_suite, run_once
from repro.bench.suites import get_panel


def test_fig4a_ping_pong_latency(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("4a").plan(quick))
    emit(table)
    anchors, claims = check_suite("fig04", {"4a": table})
    assert {a.key for a in anchors} == {
        "socketvia_latency_4b_us", "tcp_over_socketvia_latency",
        "via_latency_4b_us",
    }
    assert {c.key for c in claims} == {"latency_ordering", "latency_monotone"}


def test_fig4b_streaming_bandwidth(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("4b").plan(quick))
    emit(table)
    anchors, claims = check_suite("fig04", {"4b": table})
    assert {a.key for a in anchors} == {
        "via_peak_mbps", "socketvia_peak_mbps", "tcp_peak_mbps",
        "socketvia_2k_fraction_of_peak", "tcp_2k_fraction_of_peak",
    }
    assert {c.key for c in claims} == {
        "socketvia_near_peak_at_2k", "tcp_far_from_peak_at_2k",
    }
