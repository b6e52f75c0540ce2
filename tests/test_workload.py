"""Open-loop workload generation (repro.apps.workload).

The load-bearing property is the schedule-first contract: arrivals are
a pure function of ``(tenants, horizon, seed)``, drawn before any
simulation runs — so schedules are bit-identical across repeated
builds, independent of the transport or simulation mode that later
consumes them, and unperturbed by adding unrelated tenants.  The rest
covers the arrival-process statistics (Poisson and MMPP hit their mean
rate; MMPP is visibly burstier) and input validation.
"""

import numpy as np
import pytest

from repro.apps.serve import ServeConfig, run_serve
from repro.apps.workload import (
    FIG9_SERVING_MIX,
    MMPPProcess,
    PoissonProcess,
    QUERY_KINDS,
    QueryMix,
    TenantSpec,
    build_schedule,
    uniform_tenants,
)
from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams


def _rng(name="test", seed=7):
    return RandomStreams(seed).fresh_stream(name)


class TestQueryMix:
    def test_default_is_fig9_serving_mix(self):
        assert FIG9_SERVING_MIX == QueryMix()
        assert FIG9_SERVING_MIX.total == pytest.approx(1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(WorkloadError):
            QueryMix(complete=-0.1)

    def test_zero_total_rejected(self):
        with pytest.raises(WorkloadError):
            QueryMix(0.0, 0.0, 0.0)

    def test_kind_for_thresholds(self):
        mix = QueryMix(complete=0.2, partial=0.5, zoom=0.3)
        assert mix.kind_for(0.0) == "complete"
        assert mix.kind_for(0.199) == "complete"
        assert mix.kind_for(0.2) == "partial"
        assert mix.kind_for(0.699) == "partial"
        assert mix.kind_for(0.7) == "zoom"
        assert mix.kind_for(0.999) == "zoom"

    def test_weights_need_not_be_normalized(self):
        scaled = QueryMix(complete=2.0, partial=5.0, zoom=3.0)
        for u in (0.0, 0.1, 0.3, 0.6, 0.8, 0.99):
            assert scaled.kind_for(u) == FIG9_SERVING_MIX.kind_for(u)


class TestArrivalProcesses:
    def test_rate_must_be_positive(self):
        with pytest.raises(WorkloadError):
            PoissonProcess(0.0)
        with pytest.raises(WorkloadError):
            MMPPProcess(-1.0)

    def test_mmpp_sojourns_must_be_positive(self):
        with pytest.raises(WorkloadError):
            MMPPProcess(100.0, mean_on=0.0)
        with pytest.raises(WorkloadError):
            MMPPProcess(100.0, mean_off=-0.01)

    def test_mmpp_duty_and_burst_rate(self):
        proc = MMPPProcess(100.0, mean_on=0.02, mean_off=0.08)
        assert proc.duty == pytest.approx(0.2)
        assert proc.burst_rate == pytest.approx(500.0)

    @pytest.mark.parametrize("proc", [
        PoissonProcess(2000.0),
        MMPPProcess(2000.0),
    ])
    def test_times_sorted_and_inside_horizon(self, proc):
        times = proc.arrival_times(_rng(), 0.5)
        assert np.all(np.diff(times) > 0)
        assert times[0] >= 0.0
        assert times[-1] < 0.5

    def test_poisson_hits_mean_rate(self):
        # Average over named substreams: expectation 2000*1.0 per
        # stream, so the 8-stream mean is well inside 5%.
        counts = [len(PoissonProcess(2000.0).arrival_times(
            _rng(f"p{i}"), 1.0)) for i in range(8)]
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(2000.0, rel=0.05)

    def test_mmpp_hits_same_mean_rate(self):
        # Same long-run mean as the Poisson source — that is what makes
        # the two interchangeable on the load axis.  MMPP variance is
        # much higher, hence more streams and a looser band.
        counts = [len(MMPPProcess(2000.0).arrival_times(
            _rng(f"m{i}"), 2.0)) for i in range(16)]
        mean = sum(counts) / len(counts) / 2.0
        assert mean == pytest.approx(2000.0, rel=0.15)

    def test_mmpp_is_burstier_than_poisson(self):
        # Squared coefficient of variation of the interarrival gaps:
        # ~1 for Poisson, well above 1 for on/off arrivals.
        def cv2(proc):
            gaps = np.diff(proc.arrival_times(_rng("cv"), 2.0))
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        assert cv2(PoissonProcess(2000.0)) == pytest.approx(1.0, abs=0.3)
        assert cv2(MMPPProcess(2000.0)) > 2.0


class TestTenantSpec:
    def test_needs_a_client(self):
        with pytest.raises(WorkloadError):
            TenantSpec("t", rate=10.0, clients=0)

    def test_unknown_arrival_process(self):
        with pytest.raises(WorkloadError):
            TenantSpec("t", rate=10.0, arrival="lognormal")

    def test_process_dispatch(self):
        assert isinstance(TenantSpec("t", 10.0).process(), PoissonProcess)
        bursty = TenantSpec("t", 10.0, arrival="bursty").process()
        assert isinstance(bursty, MMPPProcess)
        assert bursty.rate == 10.0

    def test_uniform_tenants(self):
        tenants = uniform_tenants(3, 50.0, arrival="bursty")
        assert [t.name for t in tenants] == ["t0000", "t0001", "t0002"]
        assert all(t.rate == 50.0 and t.arrival == "bursty" for t in tenants)
        with pytest.raises(WorkloadError):
            uniform_tenants(0, 50.0)


class TestBuildSchedule:
    def test_input_validation(self):
        tenants = uniform_tenants(1, 100.0)
        with pytest.raises(WorkloadError):
            build_schedule(tenants, horizon=0.0, seed=1)
        with pytest.raises(WorkloadError):
            build_schedule([], horizon=1.0, seed=1)
        dupe = [TenantSpec("a", 10.0), TenantSpec("a", 20.0)]
        with pytest.raises(WorkloadError):
            build_schedule(dupe, horizon=1.0, seed=1)

    def test_sorted_with_dense_seq(self):
        schedule = build_schedule(uniform_tenants(4, 500.0), 0.2, seed=3)
        ats = [a.at for a in schedule.arrivals]
        assert ats == sorted(ats)
        assert [a.seq for a in schedule.arrivals] == list(range(len(schedule)))

    def test_counts_and_offered_rate(self):
        schedule = build_schedule(uniform_tenants(2, 1000.0), 0.5, seed=3)
        counts = schedule.counts_by_kind()
        assert set(counts) == set(QUERY_KINDS)
        assert sum(counts.values()) == len(schedule)
        assert schedule.offered_rate == pytest.approx(len(schedule) / 0.5)
        # The realized mix tracks the configured weights.
        assert counts["partial"] > counts["zoom"] > counts["complete"] / 2

    def test_fields_within_bounds(self):
        tenants = uniform_tenants(2, 200.0, clients=8)
        schedule = build_schedule(tenants, 0.2, seed=5)
        for a in schedule.arrivals:
            assert 0.0 <= a.at < 0.2
            assert 0 <= a.client < 8
            assert a.kind in QUERY_KINDS
            assert a.tenant == tenants[a.tenant_index].name


class TestDeterminism:
    """Same inputs -> bit-identical schedule, every time."""

    def test_same_seed_same_schedule(self):
        tenants = uniform_tenants(4, 300.0, arrival="bursty")
        first = build_schedule(tenants, 0.1, seed=11)
        second = build_schedule(tenants, 0.1, seed=11)
        assert first.arrivals == second.arrivals
        assert first.fingerprint() == second.fingerprint()

    def test_different_seed_different_schedule(self):
        tenants = uniform_tenants(4, 300.0)
        a = build_schedule(tenants, 0.1, seed=11)
        b = build_schedule(tenants, 0.1, seed=12)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_covers_every_field(self):
        schedule = build_schedule(uniform_tenants(1, 500.0), 0.1, seed=1)
        base = schedule.fingerprint()
        a = schedule.arrivals[0]
        for mutated in (
            type(a)(a.at + 1e-9, a.tenant, a.tenant_index, a.client, a.kind, a.seq),
            type(a)(a.at, "other", a.tenant_index, a.client, a.kind, a.seq),
            type(a)(a.at, a.tenant, a.tenant_index, a.client + 1, a.kind, a.seq),
            type(a)(a.at, a.tenant, a.tenant_index, a.client, "zoom", a.seq),
        ):
            schedule.arrivals[0] = mutated
            assert schedule.fingerprint() != base
        schedule.arrivals[0] = a
        assert schedule.fingerprint() == base

    def test_adding_a_tenant_never_perturbs_the_others(self):
        # Named substreams per tenant: t0000/t0001 draw the same
        # arrivals whether or not t0002 exists.
        two = build_schedule(uniform_tenants(2, 400.0), 0.1, seed=9)
        three = build_schedule(uniform_tenants(3, 400.0), 0.1, seed=9)

        def visible(schedule, names):
            return [(a.at, a.tenant, a.client, a.kind)
                    for a in schedule.arrivals if a.tenant in names]

        names = {"t0000", "t0001"}
        assert visible(two, names) == visible(three, names)


class TestOpenLoopContract:
    """Arrivals exist before the simulation: the offered load cannot
    depend on transport or completion times."""

    CFG = dict(hosts=4, rate_per_shard=300.0, horizon=0.02, seed=23)

    def test_offered_load_independent_of_protocol(self):
        sv = run_serve(ServeConfig(protocol="socketvia", **self.CFG))
        tcp = run_serve(ServeConfig(protocol="tcp", **self.CFG))
        assert sv.offered == tcp.offered

    def test_schedule_not_mutated_by_the_run(self):
        config = ServeConfig(**self.CFG)
        schedule = build_schedule(config.tenant_specs(), config.horizon,
                                  config.seed)
        before = schedule.fingerprint()
        result = run_serve(config, schedule=schedule)
        assert schedule.fingerprint() == before
        assert result.offered == len(schedule)
