"""Figure 10: round-robin load-balancer reaction time to heterogeneity.

The reaction time scales with the block a mistake commits (16 KB for
TCP vs 2 KB for SocketVIA), so SocketVIA reacts ~8x faster at every
factor of heterogeneity.
"""

from conftest import run_once
from repro.bench.suites import get_panel
from repro.net import PAPER_RESULTS


def test_fig10_reaction_time(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("10").plan(quick))
    emit(table)
    sv = table.column("SocketVIA")
    tcp = table.column("TCP")
    ratios = table.column("ratio_tcp_over_sv")
    # Reaction grows with the heterogeneity factor for both transports.
    assert sv == sorted(sv)
    assert tcp == sorted(tcp)
    # Paper's headline: ~8x faster reaction with SocketVIA.
    target = PAPER_RESULTS["fig10_reaction_ratio"]
    for r in ratios:
        assert 0.6 * target <= r <= 1.4 * target
