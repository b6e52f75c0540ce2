"""Point-sweep executor, result cache, and their determinism contract.

The heart of this module is the parametrized bit-identity test: for
every figure panel, the table merged from the point decomposition on a
``jobs=2`` process pool must equal the plan's in-process
:meth:`~repro.bench.executor.PointPlan.run` exactly, not
approximately; cache replays must equal the cold run the same way.
The remaining tests cover the cache key anatomy (params /
code-fingerprint sensitivity), the run context every key and worker
spec carries, LRU eviction, corrupt-entry handling, ``git_sha``'s
quiet fallback, record-level equality through ``run_experiment``, the
integrity of the declared suites, and the ``bench run --jobs`` /
``bench cache`` CLI plumbing.
"""

import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.bench import cache as cache_mod
from repro.bench import executor as executor_mod
from repro.bench import figures, servebench, suites, tailsbench, wancachebench
from repro.bench.cache import ResultCache, RunContext, code_fingerprint
from repro.bench.executor import (
    Point,
    SweepExecutor,
    execute_point,
    merge_kinds,
    resolve_jobs,
)
from repro.bench.runner import git_sha, run_experiment
from repro.bench.schema import BenchRecord
from repro.bench.suites import BenchSuite, Panel, get_panel, get_suite, suite_names
from repro.cli import main
from repro.faults.plan import FaultPlan, HostFault

#: Tiny axes per panel: enough to exercise every decomposition shape
#: (drop-outs, dedup, multi-column rows) while staying fast.
CASES = {
    "2": (figures.fig2_points, {}),
    "4a": (figures.fig4a_points, {"sizes": [4, 64]}),
    "4b": (figures.fig4b_points, {"sizes": [1024, 4096]}),
    # rate 4.0 is infeasible for TCP -> exercises the None drop-out path
    "7a": (figures.fig7_points,
           {"compute_ns_per_byte": 0.0, "rates": [4.0], "frames": 2}),
    "7b": (figures.fig7_points,
           {"compute_ns_per_byte": 18.0, "rates": [2.0], "frames": 2}),
    "8a": (figures.fig8_points,
           {"compute_ns_per_byte": 0.0, "bounds_us": [1000], "frames": 2}),
    "8b": (figures.fig8_points,
           {"compute_ns_per_byte": 18.0, "bounds_us": [400], "frames": 2}),
    "9a": (figures.fig9_points,
           {"compute_ns_per_byte": 0.0, "fractions": [0.6],
            "partitions": (1, 8), "n_queries": 2}),
    "9b": (figures.fig9_points,
           {"compute_ns_per_byte": 18.0, "fractions": [1.0],
            "partitions": (1,), "n_queries": 2}),
    "10": (figures.fig10_points, {"factors": [2], "total_bytes": 1 << 20}),
    "11": (figures.fig11_points,
           {"probabilities": [0.5], "factors": [2], "total_bytes": 1 << 19}),
    # chaos panels: the fault plan rides inside each point's params, so
    # the same bit-identity contract must hold under injected faults.
    "c8": (figures.chaos8_points, {"bounds_us": [1000], "frames": 2}),
    # 2 MB keeps the run long enough for the worker01 restart to land.
    "c11": (figures.chaos11_points,
            {"probabilities": [0.5], "total_bytes": 2 * 1024 * 1024}),
    # serve panels: the open-loop schedule is drawn per point, so the
    # same bit-identity contract covers workload generation too.  8
    # hosts, not 4: with only two bursty tenants the MMPP sources can
    # sit "off" for the whole window and serve no queries at all.
    "serve": (servebench.serve_points,
              {"hosts": 8, "rates": [300.0], "bursty_rates": [600.0],
               "horizon": 0.02}),
    "serve_scale": (servebench.serve_scale_points,
                    {"hosts_axis": [4, 8], "horizon": 0.02}),
    # wancache panels: the cache temperature and stripe width ride in
    # the point params, so warm-cache hits and multi-stream reassembly
    # fall under the same bit-identity contract.
    "wcq": (wancachebench.wcq_points,
            {"temperatures": ["cold", "hot"], "widths": [1, 2],
             "n_blocks": 16, "blocks_per_query": 4, "n_queries": 2}),
    "wcb": (wancachebench.wcb_points,
            {"widths": [1, 2], "n_blocks": 12,
             "block_bytes": 64 * 1024}),
    # tails panels: replicated dispatch + fault plans ride in the point
    # params, and tlc shares tls's cache entries — both the retraction
    # machinery and the cross-panel point reuse must stay bit-identical
    # across in-process / jobs=2 / cached execution.
    "tls": (tailsbench.tls_points, {"ks": [1, 2], "n_queries": 60}),
    "tlc": (tailsbench.tlc_points, {"ks": [1, 2], "n_queries": 60}),
}


def _context_probe():
    """Point fn: the run context the point executes under."""
    return RunContext.current().to_dict()


@pytest.fixture(scope="module")
def pool2():
    """One jobs=2 executor for the whole module (pool spawn is slow)."""
    with SweepExecutor(jobs=2) as executor:
        yield executor


# ---------------------------------------------------------------------------
# the determinism contract
# ---------------------------------------------------------------------------


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("panel", sorted(CASES))
    def test_bit_identical(self, panel, pool2):
        points_fn, kwargs = CASES[panel]
        expected = points_fn(**kwargs).run().to_dict()
        assert pool2.table(points_fn(**kwargs)).to_dict() == expected

    def test_merge_independent_of_completion_order(self):
        # Reversing the points and un-reversing the values must give the
        # same table: merge consumes plan order, not completion order.
        plan = figures.fig4a_points(sizes=[4, 64, 256])
        context = RunContext.current().to_dict()
        outs = [execute_point((p.figure, p.fn, dict(p.params), context))
                for p in reversed(plan.points)]
        values = [o["value"] for o in reversed(outs)]
        assert plan.merge(values).to_dict() == plan.run().to_dict()


class TestCacheReplay:
    def test_warm_rerun_bit_identical(self, tmp_path):
        plan_kwargs = {"factors": [2], "total_bytes": 1 << 20}
        cold_cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=cold_cache) as ex:
            cold = ex.table(figures.fig10_points(**plan_kwargs))
        n = len(figures.fig10_points(**plan_kwargs).points)
        assert (cold_cache.hits, cold_cache.misses) == (0, n)

        warm_cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=warm_cache) as ex:
            warm = ex.table(figures.fig10_points(**plan_kwargs))
        assert (warm_cache.hits, warm_cache.misses) == (n, 0)
        assert warm.to_dict() == cold.to_dict()

    def test_cached_flag_and_profile_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = figures.fig4a_points(sizes=[4])
        with SweepExecutor(jobs=1, cache=cache) as ex:
            first = ex.run(plan.points)
            second = ex.run(plan.points)
        assert [r.cached for r in first] == [False]
        assert [r.cached for r in second] == [True]
        assert second[0].value == first[0].value
        assert second[0].events == first[0].events
        assert second[0].kinds == first[0].kinds

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        plan = figures.fig4a_points(sizes=[4])
        with SweepExecutor(jobs=1, cache=cache) as ex:
            value = ex.run(plan.points)[0].value
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        entry.write_text("not json{")
        healed_cache = ResultCache(str(tmp_path))
        with SweepExecutor(jobs=1, cache=healed_cache) as ex:
            again = ex.run(plan.points)[0]
        assert healed_cache.misses == 1 and not again.cached
        assert again.value == value
        # ... and the rewritten entry is valid again.
        assert ResultCache(str(tmp_path)).get(
            cache.key("4a", plan.points[0].fn_name, {"size": 4})) is not None


class TestRunExperimentEquality:
    def test_serial_parallel_and_cached_records_agree(self, tmp_path):
        serial = run_experiment("fig10", quick=True).to_dict()
        parallel = run_experiment("fig10", quick=True, jobs=2).to_dict()
        cached_cold = run_experiment(
            "fig10", quick=True, cache=ResultCache(str(tmp_path))).to_dict()
        cached_warm = run_experiment(
            "fig10", quick=True, cache=ResultCache(str(tmp_path))).to_dict()
        for rec in (serial, parallel, cached_cold, cached_warm):
            rec.pop("wall_time_s")
        assert serial == parallel == cached_cold == cached_warm


# ---------------------------------------------------------------------------
# cache anatomy
# ---------------------------------------------------------------------------


class TestCacheKeys:
    def test_key_sensitive_to_params_fn_and_figure(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = cache.key("4a", "fig4a_size", {"size": 4})
        assert cache.key("4a", "fig4a_size", {"size": 8}) != base
        assert cache.key("4a", "fig4b_size", {"size": 4}) != base
        assert cache.key("4b", "fig4a_size", {"size": 4}) != base
        assert cache.key("4a", "fig4a_size", {"size": 4}) == base

    def test_key_sensitive_to_code_fingerprint(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        base = cache.key("4a", "fig4a_size", {"size": 4})
        monkeypatch.setattr(cache_mod, "_fingerprint", "deadbeef")
        assert cache.key("4a", "fig4a_size", {"size": 4}) != base

    def test_fingerprint_memoized_and_refreshable(self):
        first = code_fingerprint()
        assert code_fingerprint() is first
        assert code_fingerprint(refresh=True) == first  # tree unchanged
        assert re.fullmatch(r"[0-9a-f]{64}", first)


#: A non-default value for every RunContext field; a field added without
#: one fails ``test_every_field_has_a_probe_value``.
NON_DEFAULT = {
    "faults": FaultPlan(name="probe", seed=3,
                        hosts={"nope99": HostFault(crash_at=1.0,
                                                   restart_at=2.0)}),
}
FIELDS = [f.name for f in dataclasses.fields(RunContext)]


class TestRunContext:
    """The run context is the one list of ambient state: every field
    must reach both the cache key and the shipped worker spec."""

    def test_every_field_has_a_probe_value(self):
        assert sorted(NON_DEFAULT) == sorted(FIELDS)

    @pytest.mark.parametrize("name", FIELDS)
    def test_field_changes_the_key(self, name, tmp_path):
        cache = ResultCache(str(tmp_path))
        with RunContext().running():
            base = cache.key("4a", "fig4a_size", {"size": 4})
        ctx = dataclasses.replace(RunContext(), **{name: NON_DEFAULT[name]})
        with ctx.running():
            assert RunContext.current() == ctx
            assert cache.key("4a", "fig4a_size", {"size": 4}) != base

    @pytest.mark.parametrize("name", FIELDS)
    def test_field_survives_the_shipped_spec(self, name, monkeypatch):
        specs = []

        def spy(spec):
            specs.append(spec)
            return execute_point(spec)

        monkeypatch.setattr(executor_mod, "execute_point", spy)
        ctx = dataclasses.replace(RunContext(), **{name: NON_DEFAULT[name]})
        with ctx.running():
            SweepExecutor(jobs=1).run([Point("t", _context_probe)])
        (spec,) = specs
        # Replayed under the default context, as in a fresh worker.
        with RunContext().running():
            out = execute_point(spec)
        assert out["value"] == json.loads(json.dumps(ctx.to_dict()))


class TestCacheMaintenance:
    def _fill(self, cache, n):
        for i in range(n):
            cache.put(cache.key("4a", "fig4a_size", {"size": i}),
                      "4a", "fig4a_size", {"size": i},
                      [1.0, 2.0, 3.0], 0, {})

    def test_lru_eviction_under_size_cap(self, tmp_path):
        probe = ResultCache(str(tmp_path))
        self._fill(probe, 1)
        entry_bytes = probe.stats()["total_bytes"]
        probe.clear()

        cache = ResultCache(str(tmp_path), max_bytes=3 * entry_bytes)
        self._fill(cache, 6)
        stats = cache.stats()
        assert stats["entries"] <= 3
        assert stats["total_bytes"] <= cache.max_bytes
        # The survivors are the most recently written keys.
        for i in range(6 - stats["entries"], 6):
            assert cache.get(
                cache.key("4a", "fig4a_size", {"size": i})) is not None

    def test_hit_refreshes_lru_position(self, tmp_path):
        probe = ResultCache(str(tmp_path))
        self._fill(probe, 1)
        entry_bytes = probe.stats()["total_bytes"]
        probe.clear()

        cache = ResultCache(str(tmp_path), max_bytes=2 * entry_bytes)
        self._fill(cache, 2)
        oldest = cache.key("4a", "fig4a_size", {"size": 0})
        os.utime(cache._path(oldest), (1, 1))          # force it stale
        assert cache.get(oldest) is not None           # hit -> touched
        self._fill(cache, 1)                           # evicts one entry
        assert cache.get(oldest) is not None           # survivor

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._fill(cache, 3)
        assert cache.stats()["entries"] == 3
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# jobs resolution and git provenance
# ---------------------------------------------------------------------------


class TestResolveJobs:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_and_garbage_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_floor_is_one(self):
        assert resolve_jobs(-4) == 1


class TestGitSha:
    def test_in_checkout(self):
        assert re.fullmatch(r"[0-9a-f]{4,40}", git_sha())

    def test_resolves_from_package_not_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # cwd is NOT a git checkout
        assert re.fullmatch(r"[0-9a-f]{4,40}", git_sha())

    @pytest.mark.parametrize("exc", [
        FileNotFoundError("no git"),
        subprocess.TimeoutExpired(cmd="git", timeout=10),
        PermissionError("denied"),
    ])
    def test_failure_modes_fall_back_quietly(self, monkeypatch, exc, capsys):
        def boom(*args, **kwargs):
            raise exc
        monkeypatch.setattr(subprocess, "run", boom)
        assert git_sha() == "unknown"
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_nonzero_exit_falls_back(self, monkeypatch):
        class Proc:
            returncode = 128
            stdout = ""
            stderr = "fatal: not a git repository"

        monkeypatch.setattr(subprocess, "run", lambda *a, **k: Proc())
        assert git_sha() == "unknown"


# ---------------------------------------------------------------------------
# trace-profile merging
# ---------------------------------------------------------------------------


class TestMergeKinds:
    def test_sums_events_and_times(self):
        merged = merge_kinds([
            {"a": {"events": 2, "time_s": 0.5}},
            {"a": {"events": 3, "time_s": 0.25},
             "b": {"events": 1, "time_s": 0.0}},
        ])
        assert merged == {"a": {"events": 5, "time_s": 0.75},
                          "b": {"events": 1, "time_s": 0.0}}
        assert isinstance(merged["a"]["events"], int)

    def test_keys_sorted(self):
        merged = merge_kinds([{"z": {"events": 1, "time_s": 0.0}},
                              {"a": {"events": 1, "time_s": 0.0}}])
        assert list(merged) == ["a", "z"]


# ---------------------------------------------------------------------------
# suites plumbing: quick-flag audit and the sweep meta-suite
# ---------------------------------------------------------------------------


def test_fig2_quick_equals_full():
    """fig2 is exempt from quick mode by design (documented on its
    panel in ``figures.py``): a closed-form model evaluation with no
    sweep axes."""
    panel = get_panel("2")
    assert panel.table(True).to_dict() == panel.table(False).to_dict()


def test_fig11_quick_axes_are_a_corner_of_the_baseline():
    """fig11's quick axes keep the full axes' workload, so their cells
    equal the committed baseline's (10, 90) x (2, 8) corner exactly,
    and both claims pass on them."""
    quick = get_panel("11").table(True)
    claims = get_suite("fig11").claims({"11": quick})
    assert [c.key for c in claims if not c.passed] == []
    assert len(claims) == 2
    path = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "baselines" / "BENCH_fig11.json")
    full = BenchRecord.load(str(path)).table("11")
    for row in quick.rows:
        prob = row[0]
        for column, value in zip(quick.columns[1:], row[1:]):
            assert value == full.rows[full.column("prob_slow_pct").index(
                prob)][full.columns.index(column)], (prob, column)


def test_every_declared_panel_is_well_formed():
    """Every panel the loader returns: a sweep panel's quick plan has
    points whose functions pickle by reference (pool workers import
    them); a meta panel has no plan."""
    for bench_id in suite_names():
        for panel in get_suite(bench_id).panels:
            plan = panel.plan(True)
            if panel.run is not None:
                assert plan is None, panel.panel_id
                continue
            assert plan.points, f"panel {panel.panel_id} has no points"
            for point in plan.points:
                assert pickle.loads(pickle.dumps(point.fn)) is point.fn


@pytest.fixture
def fresh_declarations():
    """Drop the loader's memo around a test that swaps its modules."""
    suites._declarations.cache_clear()
    yield
    suites._declarations.cache_clear()


def test_loader_rejects_a_panel_declared_twice(monkeypatch,
                                               fresh_declarations):
    for name, suite_id in (("decl_a", "a"), ("decl_b", "b")):
        module = types.ModuleType(name)
        module.BENCH_SUITES = (
            BenchSuite(suite_id, "t", (Panel("p", run=lambda q: None),)),)
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(suites, "_DECLARING_MODULES", ("decl_a", "decl_b"))
    with pytest.raises(ValueError, match="'p' is declared by both "
                                         "decl_a and decl_b"):
        get_panel("p")


def test_sweep_suite_extractors():
    from repro.bench.records import ExperimentTable

    table = ExperimentTable(
        "sweep", "t",
        ["sweep", "points", "events", "serial_s", "parallel_s",
         "speedup_parallel", "warm_s", "speedup_cache", "warm_hits",
         "identical"])
    table.add_row("fig04", 10, 100, 2.0, 1.0, 2.0, 0.1, 20.0, 10, "yes")
    table.add_row("TOTAL", 10, 100, 2.0, 1.0, 2.0, 0.1, 20.0, 10, "yes")
    table.add_note("host_cpus=1, parallel leg ran --jobs 4")

    suite = get_suite("sweep")
    claims = {c.key: c.passed for c in suite.claims({"sweep": table})}
    assert claims == {
        "sweeps_bit_identical": True,
        "warm_hits_full": True,
        "warm_rerun_10x": True,
        # host_cpus=1 < 4 -> vacuously true even at 2x measured
        "parallel_2x_when_cores_allow": True,
    }
    anchors = {a.key: a.measured for a in suite.anchors({"sweep": table})}
    assert anchors["sweep_total_points"] == 10.0
    assert anchors["fig04.speedup_cache"] == 20.0
    # wall-clock anchors use dotted keys so the comparator warns, never fails
    from repro.bench.comparator import _is_wall_metric
    assert _is_wall_metric("fig04.speedup_parallel")
    assert _is_wall_metric("TOTAL.warm_s")
    assert not _is_wall_metric("sweep_total_points")


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCli:
    def test_bench_cache_stats_json(self, tmp_path, capsys):
        rc = main(["bench", "cache", "stats",
                   "--cache-dir", str(tmp_path), "--json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["directory"] == str(tmp_path)

    def test_bench_cache_clear(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path))
        cache.put(cache.key("4a", "fig4a_size", {"size": 4}),
                  "4a", "fig4a_size", {"size": 4}, [1.0], 0, {})
        rc = main(["bench", "cache", "clear", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(str(tmp_path)).stats()["entries"] == 0

    def test_bench_run_jobs_and_cache(self, tmp_path, capsys):
        results = tmp_path / "results"
        cache_dir = tmp_path / "cache"
        argv = ["bench", "run", "fig10", "--quick", "--jobs", "2",
                "--results", str(results), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert re.search(r"cache: 0 hit\(s\), \d+ miss\(es\)", out)
        # warm rerun: every point hits
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.search(r"cache: \d+ hit\(s\), 0 miss\(es\)", out)

    def test_bench_run_no_cache(self, tmp_path, capsys):
        argv = ["bench", "run", "fig02", "--no-cache",
                "--results", str(tmp_path)]
        assert main(argv) == 0
        assert "cache:" not in capsys.readouterr().out
