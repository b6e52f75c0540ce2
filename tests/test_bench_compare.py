"""Comparator tolerance logic: pass / warn / fail classification."""

import copy

import pytest

from repro.bench import baselines
from repro.bench.comparator import Tolerance, compare_dirs, compare_records
from tests.test_bench_schema import make_record

TOL = Tolerance(rel_warn=0.01, rel_fail=0.05)


class TestToleranceBands:
    @pytest.mark.parametrize("base,new,expected", [
        (100.0, 100.0, "pass"),       # exact
        (100.0, 100.9, "pass"),       # within warn band
        (100.0, 103.0, "warn"),       # between warn and fail
        (100.0, 110.0, "fail"),       # beyond fail band
        (100.0, 95.1, "warn"),        # symmetric on the low side
        (None, None, "pass"),         # drop-out on both sides
        (None, 5.0, "fail"),          # drop-out vanished
        (5.0, None, "fail"),          # drop-out appeared
        (0.0, 0.0, "pass"),           # zero baseline, unchanged
        (0.0, 1e-9, "fail"),          # zero baseline, any drift fails
    ])
    def test_classify(self, base, new, expected):
        assert TOL.classify(base, new) == expected

    def test_boundaries_inclusive(self):
        assert TOL.classify(100.0, 101.0) == "pass"
        assert TOL.classify(100.0, 105.0) == "warn"


class TestCompareRecords:
    def test_identical_records_pass(self):
        comp = compare_records(make_record(), make_record(), TOL)
        assert comp.status == "pass"
        assert not comp.problems
        # anchor + two numeric cells (the string/None cells don't diff)
        assert any(d.metric == "anchor:tcp_latency" for d in comp.diffs)

    def test_small_drift_warns(self):
        new = make_record()
        new.tables["X"]["rows"][0][1] *= 1.02
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "warn"

    def test_large_drift_fails_with_exit_worthy_status(self):
        new = make_record()
        new.tables["X"]["rows"][0][1] *= 1.5
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "fail"
        assert "X[0].TCP" in comp.render()

    def test_anchor_leaving_paper_tolerance_is_structural(self):
        new = make_record()
        new.anchors[0]["measured"] = 60.0
        new.anchors[0]["ok"] = False
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "fail"
        assert any("paper tolerance" in p for p in comp.problems)

    def test_claim_regression_fails(self):
        new = make_record()
        new.claims[0]["passed"] = False
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "fail"
        assert any("claim regressed" in p for p in comp.problems)

    def test_claim_improvement_warns_only(self):
        base = make_record()
        base.claims[0]["passed"] = False
        comp = compare_records(make_record(), base, TOL)
        assert comp.status == "warn"

    def test_vanished_anchor_fails(self):
        new = make_record(anchors=[])
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "fail"
        assert any("vanished" in p for p in comp.problems)

    def test_table_shape_change_fails(self):
        new = make_record()
        new.tables = copy.deepcopy(new.tables)
        new.tables["X"]["rows"].append([8192, 1.0])
        comp = compare_records(new, make_record(), TOL)
        assert comp.status == "fail"
        assert any("shape" in p for p in comp.problems)

    def test_quick_vs_full_mismatch_fails_early(self):
        comp = compare_records(make_record(quick=True), make_record(), TOL)
        assert comp.status == "fail"
        assert any("axis mismatch" in p for p in comp.problems)

    def test_sha_ignored_and_wall_time_gated_warn_only(self):
        # git_sha and small wall drift: clean pass.
        new = make_record(wall_time_s=1.1, git_sha="fffffff")
        base = make_record(wall_time_s=1.0)
        assert compare_records(new, base, TOL).status == "pass"
        # Beyond 25% drift: warns, but can never fail — it measures the
        # host, not the simulation.
        slow = make_record(wall_time_s=999.0)
        comp = compare_records(slow, base, TOL)
        assert comp.status == "warn"
        assert any(d.metric == "record:wall_time_s" and d.status == "warn"
                   for d in comp.diffs)

    def test_wall_clock_table_columns_warn_only(self):
        base = make_record()
        base.tables = copy.deepcopy(base.tables)
        base.tables["X"]["columns"].append("wall_s")
        for row in base.tables["X"]["rows"]:
            row.append(1.0)
        slow = copy.deepcopy(base)
        for row in slow.tables["X"]["rows"]:
            row[-1] = 10.0  # 10x slower host: still only a warning
        comp = compare_records(slow, base, TOL)
        assert comp.status == "warn"
        assert all(d.status != "fail" for d in comp.diffs)

    def test_events_processed_gated_exactly(self):
        base = make_record(events_processed=1000)
        same = make_record(events_processed=1000)
        assert compare_records(same, base, TOL).status == "pass"
        drifted = make_record(events_processed=1200)
        assert compare_records(drifted, base, TOL).status == "fail"
        # v1 baseline without the counter: nothing to compare.
        old = make_record(events_processed=None)
        assert compare_records(same, old, TOL).status == "pass"


class TestCompareDirs:
    def test_missing_baseline_fails_with_hint(self, tmp_path):
        results = tmp_path / "results"
        baselines.store_record(make_record(), str(results))
        comps = compare_dirs(str(results), str(tmp_path / "baselines"))
        assert len(comps) == 1 and comps[0].status == "fail"
        assert any("--update-baseline" in p for p in comps[0].problems)

    def test_matching_dirs_pass(self, tmp_path):
        results, base = str(tmp_path / "r"), str(tmp_path / "b")
        baselines.store_record(make_record(), results)
        baselines.store_record(make_record(), base)
        comps = compare_dirs(results, base)
        assert [c.status for c in comps] == ["pass"]

    def test_named_experiment_without_run_fails(self, tmp_path):
        comps = compare_dirs(str(tmp_path), str(tmp_path), ["figxx"])
        assert comps[0].status == "fail"
