"""Figure 11: demand-driven scheduling under dynamic slowdown.

With DD, acknowledgments route work away from the slow node, so TCP
performs close to SocketVIA — the paper's "if high-performance
substrates are not available, applications should be structured to
take advantage of pipelining and dynamic scheduling".
"""

from conftest import check_suite, run_once
from repro.bench.suites import get_panel


def test_fig11_execution_time(benchmark, emit, quick, sweep):
    table = run_once(benchmark, sweep.table, get_panel("11").plan(quick))
    emit(table)
    check_suite("fig11", {"11": table})
