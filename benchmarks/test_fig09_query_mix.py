"""Figure 9: average response time vs fraction of complete-update
queries, for partitionings {none, 8, 64} x {SocketVIA, TCP}.

Checks: unpartitioned response times are flat in the mix; partitioned
TCP response rises much faster than SocketVIA; for a fixed response
budget SocketVIA tolerates a higher complete-update fraction.
"""

from conftest import run_once
from repro.bench.suites import get_panel


def _tolerated_fraction(table, column, budget_ms):
    """Largest fraction whose mean response stays within the budget."""
    best = None
    for frac, val in zip(table.column("fraction_complete"), table.column(column)):
        if val is not None and val <= budget_ms:
            best = frac
    return best


def test_fig9a_no_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("9a").plan(quick))
    emit(table)
    # Unpartitioned: flat response regardless of the mix (every query
    # fetches the whole image).
    for col in ("SocketVIA_pnone", "TCP_pnone"):
        vals = table.column(col)
        assert max(vals) / min(vals) < 1.15
    # Partitioned: response grows with the complete fraction, and TCP
    # grows faster than SocketVIA.
    sv64 = table.column("SocketVIA_p64")
    tcp64 = table.column("TCP_p64")
    assert sv64[-1] > sv64[0] and tcp64[-1] > tcp64[0]
    assert (tcp64[-1] - tcp64[0]) > 1.2 * (sv64[-1] - sv64[0])
    # The paper's operating point: for a mid-range budget, SocketVIA
    # tolerates a larger complete-update fraction than TCP.
    budget = (tcp64[0] + tcp64[-1]) / 2
    assert _tolerated_fraction(table, "SocketVIA_p64", budget) >= \
        _tolerated_fraction(table, "TCP_p64", budget)


def test_fig9b_linear_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("9b").plan(quick))
    emit(table)
    # Computation raises everything but preserves the ordering at the
    # complete-heavy end.
    assert table.column("TCP_p64")[-1] > table.column("SocketVIA_p64")[-1]
