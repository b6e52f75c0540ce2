"""At the default seed the workloads are committed bench rows, exactly.

Serve uses ``ServeResult.digest()``; the pinned digests in
``perf/expected.json`` are what the benchmark checks every repetition
against, so these tests tie them to the committed baselines.
"""

import itertools
import json

import pytest

import run
import workloads
from repro.apps import run_serve

BASELINES = run.ROOT / "benchmarks" / "baselines"
EXPECTED = json.loads(run.EXPECTED_PATH.read_text())
SEED = run.DEFAULT_SEED


def _rows(suite, table):
    data = json.loads((BASELINES / f"BENCH_{suite}.json").read_text())
    t = data["tables"][table]
    return [dict(zip(t["columns"], row)) for row in t["rows"]]


def test_serve_via_is_the_committed_serve_row():
    row = next(r for r in _rows("serve", "serve")
               if r["arrival"] == "poisson" and r["rate_per_shard"] == 800.0)
    result = run_serve(workloads.serve_via_config(SEED))
    assert result.offered == row["offered_sv"]
    assert result.throughput == row["SocketVIA_qps"]
    assert result.p50 * 1e3 == row["SocketVIA_p50_ms"]
    assert result.p99 * 1e3 == row["SocketVIA_p99_ms"]
    assert result.drop_rate == row["SocketVIA_drop_rate"]
    assert result.digest() == EXPECTED["serve_via"]


def test_serve_tcp_wide_is_the_committed_scale_row():
    row = next(r for r in _rows("serve", "serve_scale") if r["hosts"] == 1024)
    result = run_serve(workloads.serve_tcp_wide_config(SEED))
    assert result.completed == row["TCP_completed"]
    assert result.events_per_query == row["TCP_ev_per_query"]
    assert result.digest() == EXPECTED["serve_tcp_wide"]


def test_tails_hedged_seed_29_is_the_committed_straggler_cells():
    latency = {r["k"]: r for r in _rows("tails", "tls")
               if r["plan"] == "straggler"}
    cost = {r["k"]: r for r in _rows("tails", "tlc")
            if r["plan"] == "straggler"}
    runs = list(itertools.islice(workloads.tails_runs(SEED), 2))
    assert [(s, k) for s, k, _ in runs] == [(29, 1), (29, 2)]
    for _seed, k, result in runs:
        assert result.latency_percentile(50) * 1e3 == latency[k]["TCP_p50_ms"]
        assert result.latency_percentile(99) * 1e3 == latency[k]["TCP_p99_ms"]
        assert result.latency_percentile(99.9) * 1e3 == \
            latency[k]["TCP_p999_ms"]
        assert result.work_executed * 1e3 == cost[k]["TCP_work_ms"]
        assert (result.dispatched, result.completed, result.retracted,
                result.hedges_sent) == (
            cost[k]["TCP_dispatched"], cost[k]["TCP_completed"],
            cost[k]["TCP_retracted"], cost[k]["TCP_hedges"])


@pytest.mark.parametrize("name", ["tails_hedged", "stream_sizes"])
def test_pinned_digest_is_current(name):
    assert workloads.run_workload(name, SEED).digest == EXPECTED[name]
