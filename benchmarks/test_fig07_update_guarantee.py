"""Figure 7: partial-update latency under update-rate guarantees.

7(a): no computation.  7(b): 18 ns/byte linear computation.
Checks the paper's claims: SocketVIA improves latency both inherently
(same blocks) and further with data repartitioning; TCP cannot meet
high frame rates; improvements reach the paper's multiples.
"""

from conftest import run_once
from repro.bench.suites import get_panel


def _series(table):
    return (
        table.column("TCP"),
        table.column("SocketVIA"),
        table.column("SocketVIA_DR"),
    )


def test_fig7a_no_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("7a").plan(quick))
    emit(table)
    tcp, sv, dr = _series(table)
    # TCP cannot meet the 4 updates/s guarantee; SocketVIA-DR can.
    assert tcp[0] is None
    assert dr[0] is not None
    # Wherever TCP is feasible, the ordering is TCP > SV > SV-DR.
    pairs = [(t, s, d) for t, s, d in zip(tcp, sv, dr) if t is not None]
    assert pairs, "TCP never feasible?"
    for t, s, d in pairs:
        assert t > s > d
    # Paper: >3.5x without repartitioning, >10x with, somewhere.
    assert max(t / s for t, s, _ in pairs) > 2.5
    assert max(t / d for t, _, d in pairs) > 8.0


def test_fig7b_linear_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("7b").plan(quick))
    emit(table)
    tcp, sv, dr = _series(table)
    rates_col = table.column("updates_per_sec")
    # With computation nobody exceeds ~3.3 updates/s (viz compute bound).
    for rate, d in zip(rates_col, dr):
        if rate > 3.4:
            assert d is None
    pairs = [(t, s, d) for t, s, d in zip(tcp, sv, dr) if t is not None]
    for t, s, d in pairs:
        assert t > s > d
    assert max(t / d for t, _, d in pairs) > 8.0
