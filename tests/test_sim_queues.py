"""Pending-event queue tests: the kernel heap against a sorted reference.

The contract under test: the simulator fires the pending set in exactly
``(time, priority, seq)`` order, through any interleaving of
``schedule`` / ``cancel`` / ``run(until=)`` / ``step()`` with tied
timestamps and priorities, lazy tombstones, and compaction sweeps.  The
oracle is a plain list re-sorted before every pop — no heap — so a
heap-order bug cannot hide in both sides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StopSimulation
from repro.sim import Simulator

# A coarse time grid (multiples of 0.25) maximizes ties on time and
# keeps every sum exact in binary floating point.
grid_times = st.integers(min_value=0, max_value=16).map(lambda i: i * 0.25)
priorities = st.integers(min_value=0, max_value=1)

# One operation in the interleaving strategy:
#   ("schedule", delay, priority)
#   | ("cancel", index) — cancels the index-th still-live event
#   | ("run", delay) — run(until=now + delay)
#   | ("step",) — process exactly one event
#   | ("peek",) — time of the next live event
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), grid_times, priorities),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("run"), grid_times),
        st.tuples(st.just("step")),
        st.tuples(st.just("peek")),
    ),
    min_size=1,
    max_size=60,
)


class _Oracle:
    """Sorted-list reference model of the pending set."""

    def __init__(self):
        self.pending = []  # (time, priority, seq, tag)
        self.now = 0.0
        self.log = []

    def pop_next(self):
        self.pending.sort()
        when, _prio, _seq, tag = self.pending.pop(0)
        self.now = when
        self.log.append((when, tag))

    def run_until(self, stop_at):
        while self.pending and min(self.pending)[0] <= stop_at:
            self.pop_next()
        self.now = max(self.now, stop_at)

    def drain(self):
        while self.pending:
            self.pop_next()

    def cancel(self, tag):
        self.pending = [e for e in self.pending if e[3] != tag]


def _replay(ops):
    """Drive a Simulator and the oracle through one op script."""
    sim = Simulator()
    # Shrink the compaction floor so short scripts also exercise sweeps.
    sim._COMPACT_MIN = 4
    oracle = _Oracle()
    log = []
    live = {}  # tag -> event, scheduled and neither fired nor cancelled
    seq = 0

    def triggered_event(tag):
        event = sim.event()
        event.add_callback(lambda e: (log.append((sim.now, tag)),
                                      live.pop(tag)))
        # Trigger by hand (succeed() would also schedule): schedule()
        # requires a triggered event, and cancel() a scheduled one.
        event._ok = True
        event._value = None
        live[tag] = event
        return event

    def enqueue(delay, prio):
        nonlocal seq
        oracle.pending.append((oracle.now + delay, prio, seq, seq))
        seq += 1
        return triggered_event(seq - 1)

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            sim.schedule(enqueue(op[1], op[2]), delay=op[1], priority=op[2])
        elif kind == "cancel":
            if live:
                tag = sorted(live)[op[1] % len(live)]
                live.pop(tag).cancel()
                oracle.cancel(tag)
        elif kind == "run":
            stop_at = sim.now + op[1]
            sim.run(until=stop_at)
            oracle.run_until(stop_at)
        elif kind == "step":
            if oracle.pending:
                sim.step()
                oracle.pop_next()
            else:
                with pytest.raises(StopSimulation):
                    sim.step()
        else:
            expect = min(oracle.pending)[0] if oracle.pending else float("inf")
            assert sim.peek() == expect
        assert sim.now == oracle.now
        assert log == oracle.log
    sim.run()
    oracle.drain()
    return sim, log, oracle


class TestBackendEquivalence:
    """The kernel heap and the sorted-list oracle are the two backends."""

    @given(ops_strategy)
    @settings(max_examples=150, deadline=None)
    def test_all_backends_dequeue_identically(self, ops):
        sim, log, oracle = _replay(ops)
        assert log == oracle.log
        assert sim.now == oracle.now
        assert sim.events_processed == len(log)
        assert not oracle.pending
        assert sim.peek() == float("inf")

    @given(st.lists(st.tuples(grid_times, priorities), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_peek_agrees_across_backends(self, schedules):
        ops = [("schedule", delay, prio) for delay, prio in schedules]
        # _replay checks peek() against the oracle after every schedule.
        _replay([op for pair in zip(ops, [("peek",)] * len(ops))
                 for op in pair] + [("peek",)])


class TestHeapOrderOracle:
    def test_ties_break_by_priority_then_seq(self):
        ops = [("schedule", 1.0, 1), ("schedule", 1.0, 0),
               ("schedule", 1.0, 1), ("schedule", 0.5, 1),
               ("schedule", 1.0, 0)]
        _sim, log, _oracle = _replay(ops)
        # tags: 0 (1.0,p1) 1 (1.0,p0) 2 (1.0,p1) 3 (0.5,p1) 4 (1.0,p0)
        assert [tag for _t, tag in log] == [3, 1, 4, 0, 2]

    def test_cancel_storm_compacts_and_keeps_order(self):
        ops = [("schedule", float(i % 5), 1) for i in range(40)]
        ops += [("cancel", 0)] * 30
        sim, log, oracle = _replay(ops)
        assert sim.compactions >= 1
        assert len(log) == 10
        assert log == oracle.log


class TestCounters:
    def test_compactions_counter(self):
        sim = Simulator()
        timers = [sim.timeout(1.0) for _ in range(4096)]
        assert sim.compactions == 0
        for t in timers:
            t.cancel()
        assert sim.compactions >= 1
        assert len(sim._heap) == 0

    def test_pool_hits_counter(self):
        sim = Simulator()

        def churn():
            for _ in range(64):
                yield sim.timeout(0.001)

        sim.process(churn())
        sim.run()
        assert sim.pool_hits > 0
