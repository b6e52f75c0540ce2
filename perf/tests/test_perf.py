"""Tests of the benchmark itself: workloads, traced runs, metric names."""

import json
import pkgutil
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_repeats(name):
    first = workloads.run_workload(name, 3, tiny=True)
    second = workloads.run_workload(name, 3, tiny=True)
    assert first.scenarios >= 1 and first.ops > 0
    assert re.fullmatch(r"[0-9a-f]{64}", first.digest)
    assert first == second


def test_seed_changes_the_inputs():
    a = workloads.run_workload("serve_tcp_wide", 3, tiny=True)
    b = workloads.run_workload("serve_tcp_wide", 4, tiny=True)
    assert a.digest != b.digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_its_time(name):
    plain = run.run_child(name, 3, tiny=True)
    traced = run.run_child(name, 3, trace=True, tiny=True)
    assert "error" not in plain and "error" not in traced
    assert traced["digest"] == plain["digest"]
    self_s = sum(v["self_s"] for v in traced["layers"].values())
    assert self_s == pytest.approx(traced["workload_s"], rel=0.01)
    metrics = run.layer_values(traced, [plain])
    assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) == \
        pytest.approx(1.0)
    if name != "tails_hedged":
        assert metrics["faults.calls"] == 0
        assert metrics["faults.events"] == 0
    else:
        assert metrics["faults.calls"] > 0


def test_layer_map_covers_every_library_package():
    import repro

    packages = {m.name for m in pkgutil.iter_modules(repro.__path__)
                if m.ispkg}
    assert packages == set(layers.PACKAGE_LAYER)
    assert set(layers.PACKAGE_LAYER.values()) == set(layers.LAYERS)


def test_benchmark_json_respects_the_limits():
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in e2e + per_layer + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_run_emits_exactly_the_benchmark_metrics(monkeypatch, tmp_path,
                                                 capsys):
    real = run.run_child
    monkeypatch.setattr(
        run, "run_child",
        lambda name, seed, trace=False, tiny=False:
            real(name, seed, trace=trace, tiny=True))
    monkeypatch.setattr(run, "RESULTS", tmp_path)

    assert run.main(["--workload", "stream_sizes", "--seed", "3",
                     "--seconds", "0"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())

    assert run.main(["--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(out["metrics"]) == set(workloads.WORKLOADS)
    for metrics in out["metrics"].values():
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert len(list(tmp_path.glob("*.trace.json"))) == 1


def _record(wall_s):
    return {"wall_s": wall_s, "setup_s": 1.0, "run_s": 1.0, "ops": 10,
            "peak_rss_mb": 100.0}


def test_sets_check_flags_only_a_breach(capsys):
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    same = [{"w": [_record(2.0), _record(2.1)]},
            {"w": [_record(2.05), _record(2.0)]}]
    assert run.compare_sets(same, ["w"], spec) == 0
    slower = [{"w": [_record(2.0)]}, {"w": [_record(3.0)]}]
    assert run.compare_sets(slower, ["w"], spec) == 1
    assert "BREACH" in capsys.readouterr().out


def test_digest_check_fails_the_odd_repetition_out():
    records = [{"digest": "a"}, {"digest": "a"}, {"digest": "b"},
               {"error": "boom", "scenarios": 2}]
    run.check_digests(records, None)
    assert "error" in records[2] and "error" not in records[0]
    records = [{"digest": "a", "scenarios": 2}, {"digest": "a",
                                                  "scenarios": 2}]
    run.check_digests(records, "pinned")
    assert run.tally(records) == (4, 4)


def test_without_library_source_it_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    (tmp_path / "perf").mkdir()
    for path in run.PERF.glob("*.py"):
        shutil.copy(path, tmp_path / "perf" / path.name)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "serve_via",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
