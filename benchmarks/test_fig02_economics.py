"""Figure 2: the message-size economics behind data repartitioning.

The paper's Figure 2 is conceptual; this regenerates it with the
calibrated transports.  The checks (U2 << U1, the L1 -> L2 -> L3
latency staircase) are the ``fig02`` suite's shared anchors/claims —
the same ones ``python -m repro bench run fig02`` records.
"""

from conftest import check_suite, run_once
from repro.bench.suites import get_panel


def test_fig2_u1_u2_and_latency_steps(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("2").plan(quick))
    emit(table)
    anchors, claims = check_suite("fig02", {"2": table})
    assert len(anchors) == 5 and len(claims) == 3
