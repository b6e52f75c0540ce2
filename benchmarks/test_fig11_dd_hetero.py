"""Figure 11: demand-driven scheduling under dynamic slowdown.

With DD, acknowledgments route work away from the slow node, so TCP
performs close to SocketVIA — the paper's "if high-performance
substrates are not available, applications should be structured to
take advantage of pipelining and dynamic scheduling".
"""

from conftest import run_once
from repro.bench import figures
from repro.bench.suites import get_panel


def test_fig11_execution_time(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("11").plan(quick))
    emit(table)
    factors = [2, 8] if quick else figures.FIG11_FACTORS
    # Execution time rises with the probability of being slow.
    for proto in ("SocketVIA", "TCP"):
        for f in factors:
            col = table.column(f"{proto}({f})")
            assert col[-1] > col[0]
    # Higher heterogeneity factor -> longer execution at high P(slow).
    last = table.rows[-1]
    sv_cols = [table.columns.index(f"SocketVIA({f})") for f in factors]
    tcp_cols = [table.columns.index(f"TCP({f})") for f in factors]
    assert last[sv_cols[0]] < last[sv_cols[-1]]
    assert last[tcp_cols[0]] < last[tcp_cols[-1]]
    # TCP tracks SocketVIA closely under demand-driven scheduling.
    for f in factors:
        sv = table.column(f"SocketVIA({f})")
        tcp = table.column(f"TCP({f})")
        for a, b in zip(sv, tcp):
            assert b / a < 1.5
