"""Fault-injection determinism contract.

Two properties keep ``repro.faults`` compatible with the content-
addressed bench cache and the parallel point executor:

1. Injection is seeded simulation state, not wall-clock randomness:
   the same :class:`FaultPlan` gives bit-identical results run twice,
   and identical results whether points execute serially or in a
   process pool — the ambient plan travels to the workers inside the
   shipped :class:`~repro.bench.cache.RunContext` and is reinstalled
   there.
2. An *empty* plan is a true no-op: results and cache keys are
   bit-identical to runs with no plan installed at all, so wrapping a
   sweep in ``with injecting(FaultPlan.empty()):`` can never orphan
   warm cache entries or perturb a figure.
"""

import dataclasses

import pytest

from repro.bench import figures
from repro.bench.cache import ResultCache, RunContext
from repro.bench.executor import SweepExecutor
from repro.faults import (
    FaultPlan,
    HostFault,
    LinkFault,
    get_preset,
    injecting,
)

#: Small fig11 axes: four loadbalance points, heavy enough for the
#: crash/restart in ``chaos-fig11`` to land mid-run.
FIG11_KW = {"probabilities": [0.5], "factors": [2], "total_bytes": 1 << 20}


class TestSeededInjection:
    def test_ambient_plan_parallel_matches_serial(self):
        """Same plan + seed: the jobs=2 pool, which reinstalls the
        shipped ambient plan per worker, equals the in-process run."""
        plan = get_preset("chaos-fig11")
        with injecting(plan):
            serial = figures.fig11_points(**FIG11_KW).run().to_dict()
            with SweepExecutor(jobs=2) as executor:
                parallel = executor.table(
                    figures.fig11_points(**FIG11_KW)).to_dict()
        assert parallel == serial

    def test_chaos_point_bit_identical_on_rerun(self):
        params = dict(prob=0.5, factor=4, protocol="tcp",
                      total_bytes=1 << 20, compute_ns_per_byte=90.0,
                      fault_plan=get_preset("chaos-fig11").to_dict())
        assert figures.chaos11_cell(**params) == figures.chaos11_cell(**params)

    def test_plan_actually_perturbs_the_run(self):
        """Guard against the hooks degrading to no-ops: the crash plan
        must move the result, not just ride along."""
        bare = figures.fig11_points(**FIG11_KW).run().to_dict()
        with injecting(get_preset("chaos-fig11")):
            faulted = figures.fig11_points(**FIG11_KW).run().to_dict()
        assert faulted != bare


class TestEmptyPlanIsNoop:
    @pytest.mark.parametrize("points_fn,kwargs", [
        (figures.fig4a_points, {"sizes": [4, 64]}),
        (figures.fig10_points, {"factors": [2], "total_bytes": 1 << 20}),
    ])
    def test_results_bit_identical_to_no_plan(self, points_fn, kwargs):
        bare = points_fn(**kwargs).run().to_dict()
        with injecting(FaultPlan.empty()):
            covered = points_fn(**kwargs).run().to_dict()
        assert covered == bare

    def test_empty_plan_shares_cache_entries(self, tmp_path):
        """No-plan and empty-plan runs must address the same cache
        entries — the run context's ``faults`` is None for both."""
        cache = ResultCache(str(tmp_path))
        base = cache.key("4a", "fig4a_size", {"size": 4})
        with injecting(FaultPlan.empty()):
            assert RunContext.current().faults is None
            assert cache.key("4a", "fig4a_size", {"size": 4}) == base

    def test_nonempty_plan_partitions_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = cache.key("4a", "fig4a_size", {"size": 4})
        plan = get_preset("chaos-fig11")
        with injecting(plan):
            assert RunContext.current().faults is plan
            keyed = cache.key("4a", "fig4a_size", {"size": 4})
            assert keyed != base
            assert cache.key("4a", "fig4a_size", {"size": 4}) == keyed
        # A plan's display name does not partition the key.
        with injecting(dataclasses.replace(plan, name="renamed")):
            assert cache.key("4a", "fig4a_size", {"size": 4}) == keyed
        # The context manager restores fault-free keying on exit.
        assert RunContext.current().faults is None
        assert cache.key("4a", "fig4a_size", {"size": 4}) == base


class TestFingerprintSemantics:
    def test_fingerprint_tracks_content_not_name(self):
        a = FaultPlan(name="a", seed=1,
                      hosts={"h": HostFault(crash_at=0.01, restart_at=0.03)})
        renamed = FaultPlan(name="b", seed=1,
                            hosts={"h": HostFault(crash_at=0.01,
                                                  restart_at=0.03)})
        reseeded = FaultPlan(name="a", seed=2,
                             hosts={"h": HostFault(crash_at=0.01,
                                                   restart_at=0.03)})
        assert a.fingerprint() == renamed.fingerprint()
        assert a.fingerprint() != reseeded.fingerprint()

    def test_fingerprint_survives_dict_roundtrip(self):
        plan = FaultPlan(
            name="roundtrip", seed=3,
            links={"clan.h.down": LinkFault(loss_rate=0.1,
                                            flap_windows=((0.0, 0.004),))},
            hosts={"h": HostFault(slowdown_windows=((0.0, 1.0, 2.0),))})
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.fingerprint() == plan.fingerprint()
        assert clone.to_dict() == plan.to_dict()
