"""Replicated dispatch (docs/TAILS.md): ReplicationPolicy, acquire_k,
reservation cancellation, the ReplicaSet first-finisher contract, and
the end-to-end tails scenario."""

import dataclasses
import random

import pytest

from repro.apps.tails import DEFAULT_HEDGE_US, TailsConfig, run_tails
from repro.datacutter.runtime import ReplicaSet, UnitOfWork
from repro.datacutter.scheduling import (
    DemandDrivenScheduler,
    ReplicationPolicy,
    make_scheduler,
)
from repro.errors import DataCutterError, ExperimentError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# ReplicationPolicy: defaults and validation
# ---------------------------------------------------------------------------


class TestReplicationPolicy:
    def test_defaults_unreplicated(self):
        p = ReplicationPolicy()
        assert (p.k, p.cancel, p.hedge_us) == (1, "lazy", 0.0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_k_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ReplicationPolicy(k=bad)

    def test_cancel_mode_validated(self):
        with pytest.raises(ValueError, match="cancel must be one of"):
            ReplicationPolicy(cancel="eager")

    def test_hedge_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="hedge_us must be >= 0"):
            ReplicationPolicy(hedge_us=-1.0)


# ---------------------------------------------------------------------------
# acquire_k: distinct picks, exclusion, clamping, reservation release
# ---------------------------------------------------------------------------


def run_gen(sim, gen):
    """Drive a scheduler generator to completion inside a process."""
    out = {}

    def runner():
        out["value"] = yield from gen
    proc = sim.process(runner())
    sim.run(proc)
    return out["value"]


class TestAcquireK:
    def test_picks_distinct_least_loaded(self, sim):
        sched = make_scheduler("dd", sim, 4, max_outstanding=2)
        sched.unacked[0] = 1
        sched._on_slots_changed(0)
        idxs = run_gen(sim, sched.acquire_k(3))
        assert len(set(idxs)) == 3
        # copy 0 is the most loaded: picked last, if at all.
        assert idxs == [1, 2, 3]
        assert sched.replication_clamped == 0

    def test_exclude_never_picked(self, sim):
        sched = make_scheduler("dd", sim, 4)
        idxs = run_gen(sim, sched.acquire_k(2, exclude=[0, 2]))
        assert sorted(idxs) == [1, 3]

    def test_k_exceeding_live_clamps_and_counts(self, sim):
        sched = make_scheduler("dd", sim, 3)
        idxs = run_gen(sim, sched.acquire_k(5))
        assert sorted(idxs) == [0, 1, 2]
        assert sched.replication_clamped == 1

    def test_exclude_covering_all_live_returns_empty(self, sim):
        sched = make_scheduler("dd", sim, 3)
        sched.mark_dead(2)
        idxs = run_gen(sim, sched.acquire_k(1, exclude=[0, 1]))
        assert idxs == []
        assert sched.replication_clamped == 1

    def test_dead_copies_reduce_the_clamp_target(self, sim):
        sched = make_scheduler("dd", sim, 4)
        sched.mark_dead(1)
        sched.mark_dead(3)
        idxs = run_gen(sim, sched.acquire_k(3))
        assert sorted(idxs) == [0, 2]
        assert sched.replication_clamped == 1

    def test_all_dead_raises(self, sim):
        sched = make_scheduler("dd", sim, 2)
        sched.mark_dead(0)
        sched.mark_dead(1)

        def runner():
            yield from sched.acquire_k(2)

        proc = sim.process(runner())
        with pytest.raises(DataCutterError, match="dead"):
            sim.run(proc)

    def test_k_below_one_raises(self, sim):
        sched = make_scheduler("dd", sim, 2)
        with pytest.raises(DataCutterError, match="k >= 1"):
            next(sched.acquire_k(0))

    def test_blocks_until_ack_frees_a_slot(self, sim):
        sched = make_scheduler("dd", sim, 2, max_outstanding=1)
        first = run_gen(sim, sched.acquire_k(1))
        assert first == [0]
        got = {}

        def runner():
            got["idxs"] = yield from sched.acquire_k(2)

        def acker():
            yield sim.timeout(1.0)
            sched.on_ack(0)

        proc = sim.process(runner())
        sim.process(acker())
        sim.run(proc)
        # Copy 1 had a free slot immediately; copy 0 joined after its ack.
        assert sorted(got["idxs"]) == [0, 1]
        assert sim.now == pytest.approx(1.0)

    def test_reserved_slots_match_acquire_accounting(self, sim):
        sched = make_scheduler("dd", sim, 3)
        idxs = run_gen(sim, sched.acquire_k(3))
        for i in idxs:
            assert sched.unacked[i] == 1
            assert sched.sent_counts[i] == 1


class TestCancelReservation:
    def test_releases_slot_and_counts(self, sim):
        sched = make_scheduler("dd", sim, 2, max_outstanding=1)
        idxs = run_gen(sim, sched.acquire_k(2))
        sched.cancel_reservation(idxs[0])
        assert sched.unacked[idxs[0]] == 0
        assert sched.sent_counts[idxs[0]] == 0
        assert sched.reservations_cancelled == 1

    def test_wakes_blocked_waiter(self, sim):
        sched = make_scheduler("dd", sim, 1, max_outstanding=1)
        run_gen(sim, sched.acquire_k(1))
        got = {}

        def runner():
            got["idxs"] = yield from sched.acquire_k(1)

        def canceller():
            yield sim.timeout(2.0)
            sched.cancel_reservation(0)

        proc = sim.process(runner())
        sim.process(canceller())
        sim.run(proc)
        assert got["idxs"] == [0]
        assert sim.now == pytest.approx(2.0)

    def test_no_reservation_raises(self, sim):
        sched = make_scheduler("dd", sim, 2)
        with pytest.raises(DataCutterError, match="no reservation"):
            sched.cancel_reservation(0)
        with pytest.raises(DataCutterError, match="unknown consumer"):
            sched.cancel_reservation(7)

    def test_written_off_slot_uncounts_a_loss(self, sim):
        # mark_dead(drop_outstanding=True) moved the reservation into
        # lost_counts; cancelling it must un-write it off, not raise.
        sched = make_scheduler("dd", sim, 2)
        idxs = run_gen(sim, sched.acquire_k(1))
        sched.mark_dead(idxs[0], drop_outstanding=True)
        assert sched.lost_counts[idxs[0]] == 1
        sched.cancel_reservation(idxs[0])
        assert sched.lost_counts[idxs[0]] == 0
        assert sched.sent_counts[idxs[0]] == 0
        assert sched.reservations_cancelled == 1


# ---------------------------------------------------------------------------
# DD _pick_excluding: bucket walk == barred-aware reference scan
# ---------------------------------------------------------------------------


def reference_pick_excluding(sched, barred):
    """Oracle mirroring the documented DD choice: minimum unacked count
    among eligible non-barred copies, ties broken by the first copy at
    or after the rotation cursor in index order, wrapping."""
    eligible = [
        i for i in range(sched.n_consumers)
        if i not in barred and not sched.dead[i]
        and sched.unacked[i] < sched.max_outstanding
    ]
    if not eligible:
        return None
    lowest = min(sched.unacked[i] for i in eligible)
    bucket = sorted(i for i in eligible if sched.unacked[i] == lowest)
    ordered = ([i for i in bucket if i >= sched._rotation]
               + [i for i in bucket if i < sched._rotation])
    return ordered[0]


class TestDemandDrivenPickExcluding:
    def test_fully_barred_bucket_falls_through(self, sim):
        sched = DemandDrivenScheduler(sim, 3, max_outstanding=2)
        sched.unacked[1] = 1
        sched._on_slots_changed(1)
        sched.unacked[2] = 1
        sched._on_slots_changed(2)
        # Bucket 0 holds only copy 0, which is barred: the walk must
        # fall through to bucket 1 instead of double-counting copy 0.
        assert sched._pick_excluding({0}) == 1

    def test_never_returns_barred_or_full(self, sim):
        sched = DemandDrivenScheduler(sim, 4, max_outstanding=1)
        sched.unacked[2] = 1
        sched._on_slots_changed(2)
        for _ in range(8):
            idx = sched._pick_excluding({0})
            assert idx not in (0, 2)

    def test_matches_reference_over_random_state(self, sim):
        rng = random.Random(4242)
        sched = DemandDrivenScheduler(sim, 6, max_outstanding=3)
        for step in range(400):
            op = rng.random()
            if op < 0.35:
                # mutate slot state through the public paths
                idx = rng.randrange(6)
                if sched.unacked[idx] < sched.max_outstanding \
                        and not sched.dead[idx]:
                    sched.unacked[idx] += 1
                    sched.sent_counts[idx] += 1
                    sched._on_slots_changed(idx)
            elif op < 0.6:
                idx = rng.randrange(6)
                if sched.unacked[idx] > 0:
                    sched.on_ack(idx)
            elif op < 0.7:
                idx = rng.randrange(6)
                if sched.dead[idx]:
                    sched.mark_alive(idx)
                else:
                    sched.mark_dead(idx)
            barred = set(rng.sample(range(6), rng.randrange(0, 5)))
            expected = reference_pick_excluding(sched, barred)
            assert sched._pick_excluding(barred) == expected, (
                f"step {step}: unacked={sched.unacked} dead={sched.dead} "
                f"rotation={sched._rotation} barred={sorted(barred)}"
            )


# ---------------------------------------------------------------------------
# UnitOfWork.retract and the ReplicaSet first-finisher contract
# ---------------------------------------------------------------------------


class TestUnitOfWorkRetract:
    def test_retract_once(self):
        uow = UnitOfWork(uow_id=1)
        assert uow.retract(at=3.0) is True
        assert uow.retracted and uow.retracted_at == 3.0
        assert uow.retract(at=4.0) is False
        assert uow.retracted_at == 3.0

    def test_retract_after_completion_is_noop(self):
        uow = UnitOfWork(uow_id=1)
        uow.completed_at = 2.0
        assert uow.retract(at=3.0) is False
        assert not uow.retracted


class TestReplicaSet:
    def _set(self, sim, replicas=(0, 1)):
        rs = ReplicaSet(sim, UnitOfWork(uow_id=7))
        for i in replicas:
            rs.add_replica(i)
        return rs

    def test_first_complete_wins_and_retracts_losers(self, sim):
        rs = self._set(sim, (0, 1, 2))
        assert rs.complete(1) is True
        assert rs.winner == 1 and rs.uow.winner == 1
        assert rs.uow.completed_at == sim.now
        assert rs.done.triggered and rs.done.value == 1
        assert rs.retracted == {0, 2}
        assert rs.complete(0) is False
        assert rs.complete(1) is False
        c = rs.counts()
        assert c == {"dispatched": 3, "completed": 1, "retracted": 2}
        assert c["completed"] == c["dispatched"] - c["retracted"]

    def test_retracted_replica_never_resurrects(self, sim):
        # A crashed copy replaying its backlog must not complete a
        # replica the dispatcher already withdrew.
        rs = self._set(sim, (0, 1))
        assert rs.retract(0) is True
        assert rs.complete(0) is False
        assert rs.winner is None
        assert rs.complete(1) is True
        assert rs.counts() == {"dispatched": 2, "completed": 1,
                               "retracted": 1}

    def test_whole_unit_retraction(self, sim):
        rs = self._set(sim, (0, 1))
        assert rs.retract() is True
        assert rs.uow.retracted and rs.decided
        assert rs.done.triggered and rs.done.value is None
        assert rs.retracted == {0, 1}
        assert rs.complete(0) is False
        assert rs.retract() is False
        assert rs.counts() == {"dispatched": 2, "completed": 0,
                               "retracted": 2}

    def test_retract_winner_refused(self, sim):
        rs = self._set(sim)
        rs.complete(0)
        assert rs.retract(0) is False
        assert rs.retract() is False  # unit completed: nothing to withdraw
        assert 0 not in rs.retracted

    def test_loss_cancels_inflight_timer(self, sim):
        rs = self._set(sim)
        timer = sim.timeout(5.0)
        rs.arm(1, timer)
        lose = rs.lose_event(1)
        rs.complete(0)
        assert timer.cancelled
        assert lose.triggered and lose.value == "retracted"
        assert 1 in rs.started  # diagnostics: the expensive retraction

    def test_disarmed_timer_left_alone(self, sim):
        rs = self._set(sim)
        timer = sim.timeout(5.0)
        rs.arm(1, timer)
        rs.disarm(1)
        rs.complete(0)
        assert not timer.cancelled

    def test_lose_event_is_cached_and_single(self, sim):
        rs = self._set(sim)
        assert rs.lose_event(1) is rs.lose_event(1)

    def test_equal_finish_times_resolve_by_dispatch_seq(self, sim):
        # Two replicas finish at the same instant: the kernel pops
        # events in (time, priority, seq) order, so the replica whose
        # timer was scheduled first always wins — run it repeatedly to
        # show the tie-break is structural, not interleaving luck.
        winners = []
        for _ in range(5):
            s = Simulator()
            rs = ReplicaSet(s, UnitOfWork(uow_id=1))
            rs.add_replica(0)
            rs.add_replica(1)

            def replica(me, rs=rs, s=s):
                timer = s.timeout(1.0)
                rs.arm(me, timer)
                yield s.any_of([timer, rs.lose_event(me)])
                rs.disarm(me)
                if timer.processed and not timer.cancelled:
                    rs.complete(me)

            s.process(replica(0))
            s.process(replica(1))
            s.run()
            winners.append(rs.winner)
        assert winners == [0] * 5


# ---------------------------------------------------------------------------
# end-to-end: the tails scenario
# ---------------------------------------------------------------------------


class TestRunTails:
    QUICK = dict(n_workers=3, n_queries=40, rate=2500.0, seed=5)

    def test_unreplicated_conserves_trivially(self):
        r = run_tails(TailsConfig(k=1, **self.QUICK))
        assert r.dispatched == r.completed == 40
        assert r.retracted == 0 and r.completed == r.dispatched
        assert r.hedges_sent == 0
        assert len(r.latencies) == 40
        assert sum(r.won_counts) == 40

    def test_broken_ledger_refuses_to_build(self):
        """A result checks ``completed == dispatched - retracted`` when
        it is built, as ``ServeResult`` does for its admission ledger."""
        r = run_tails(TailsConfig(k=1, **self.QUICK))
        with pytest.raises(ExperimentError, match="conservation violated"):
            dataclasses.replace(r, completed=r.completed - 1)

    def test_racing_replicas_conserve_exactly(self):
        r = run_tails(TailsConfig(k=2, hedge_us=0.0, **self.QUICK))
        assert r.dispatched == 80
        assert r.completed == 40
        assert r.retracted == 40
        assert r.completed == r.dispatched - r.retracted
        assert (r.retracted_before_start + r.retracted_started
                == r.retracted)

    def test_repeat_runs_bit_identical(self):
        cfg = dict(k=2, hedge_us=0.0, **self.QUICK)
        a = run_tails(TailsConfig(**cfg))
        b = run_tails(TailsConfig(**cfg))
        assert a.latencies == b.latencies
        assert a.sent_counts == b.sent_counts
        assert a.won_counts == b.won_counts
        assert a.work_executed == b.work_executed

    def test_cancel_none_ablation_burns_more_work(self):
        base = dict(k=2, hedge_us=0.0, **self.QUICK)
        lazy = run_tails(TailsConfig(cancel="lazy", **base))
        none = run_tails(TailsConfig(cancel="none", **base))
        for r in (none, lazy):
            assert r.completed == r.dispatched - r.retracted
        # Without cancellation every loser runs to completion.
        assert none.work_executed > lazy.work_executed

    def test_k_exceeding_workers_clamps(self):
        r = run_tails(TailsConfig(k=5, hedge_us=0.0, n_workers=2,
                                  n_queries=10, rate=2500.0, seed=5))
        assert r.replication_clamped == 10
        assert r.dispatched == 20  # 2 distinct copies per query
        assert r.completed == r.dispatched - r.retracted

    def test_default_policy_without_ambient(self):
        p = TailsConfig(**self.QUICK).resolved_policy()
        assert (p.k, p.cancel, p.hedge_us) == (1, "lazy", DEFAULT_HEDGE_US)
