"""Figure 8: maximum updates/s under partial-update latency guarantees.

8(a): no computation — TCP drops out at the tightest (100 us)
guarantee while SocketVIA stays near its peak rate.  8(b): with
18 ns/byte computation TCP and SocketVIA converge at loose guarantees
(computation is the bottleneck) and separate as the guarantee tightens.
"""

from conftest import run_once
from repro.bench.suites import get_panel


def test_fig8a_no_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("8a").plan(quick))
    emit(table)
    bounds_col = table.column("latency_us")
    tcp = table.column("TCP")
    dr = table.column("SocketVIA_DR")
    at = {b: i for i, b in enumerate(bounds_col)}
    # TCP drops out at 100 us; SocketVIA does not.
    assert tcp[at[100]] is None
    assert dr[at[100]] is not None
    # SocketVIA stays near peak: its 100 us rate is within 35 % of its
    # loosest-guarantee rate.
    assert dr[at[100]] > 0.65 * dr[0]
    # Improvement over TCP where TCP exists (paper: >6x at some point
    # as TCP's rate collapses near its drop-out).
    feasible = [(t, d) for t, d in zip(tcp, dr) if t is not None]
    assert all(d > t for t, d in feasible)


def test_fig8b_linear_computation(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("8b").plan(quick))
    emit(table)
    tcp = table.column("TCP")
    dr = table.column("SocketVIA_DR")
    # At the loosest guarantee computation dominates: TCP within ~2x of
    # SocketVIA (paper: "TCP and SocketVIA perform very closely").
    assert tcp[0] is not None and dr[0] is not None
    assert dr[0] / tcp[0] < 2.0
    # SocketVIA's rate barely moves with the guarantee (compute-bound).
    dr_feasible = [d for d in dr if d is not None]
    assert min(dr_feasible) > 0.6 * max(dr_feasible)
