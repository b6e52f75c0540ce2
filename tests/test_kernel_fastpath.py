"""The allocation-light kernel fast path and transport batching.

Covers the behaviors the `kernel` bench suite relies on:

* lazy cancellation — cancelled events never fire, no matter how the
  schedule/cancel pattern interleaves;
* heap compaction — sweeping tombstones preserves the ``(time,
  priority, seq)`` firing order of every survivor;
* NaN / negative-delay rejection at every scheduling entry point;
* ``schedule_many`` — batch scheduling is observationally identical to
  a loop of ``schedule`` calls;
* timeout pooling and the cancelled-timeout graveyard — reuse happens
  only when the kernel provably holds the last reference;
* transport batching — ``LinkDirection.send_many`` and
  ``VirtualInterface.post_send_many`` are timing-identical to their
  one-at-a-time equivalents (and match the flow-shop analytic model);
* the figure tables stay bit-identical to the committed baselines.
"""

import json
import math
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.link import LinkDirection, Transmission
from repro.errors import EventLifecycleError, StopSimulation
from repro.sim import Event, Process, Simulator

HAS_GETREFCOUNT = hasattr(sys, "getrefcount")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(REPO, "benchmarks", "baselines")


# ---------------------------------------------------------------------------
# Lazy cancellation
# ---------------------------------------------------------------------------


def test_cancelled_events_never_fire_randomized():
    rng = random.Random(0xC0FFEE)
    for trial in range(10):
        sim = Simulator()
        fired = []
        timers = []
        n = rng.randrange(50, 400)
        for i in range(n):
            t = sim.timeout(rng.uniform(0.0, 50.0), i)
            t.add_callback(lambda ev: fired.append(ev.value))
            timers.append(t)
        cancelled = set()
        # Interleave cancels with fresh schedules, including re-cancel
        # attempts and cancels of already-cancelled ids.
        for _ in range(rng.randrange(n // 2, 2 * n)):
            i = rng.randrange(n)
            if i not in cancelled and not timers[i].processed:
                assert timers[i].cancel() is True
                cancelled.add(i)
        sim.run_all()
        expected = set(range(n)) - cancelled
        assert set(fired) == expected, f"trial {trial}"
        assert len(fired) == len(expected), "a survivor fired twice"
        for i in cancelled:
            assert timers[i].cancelled and not timers[i].processed


def test_compaction_preserves_time_priority_seq_order():
    sim = Simulator()
    rng = random.Random(7)
    fired = []
    survivors = []
    timers = []
    n = 4_000
    for i in range(n):
        # Deliberately many duplicate timestamps so seq ordering matters.
        t = sim.timeout(float(rng.randrange(20)), i)
        t.add_callback(lambda ev: fired.append((sim.now, ev.value)))
        timers.append(t)
    for i, t in enumerate(timers):
        if i % 8 != 0:  # cancel 7/8 — far past the compaction trigger
            t.cancel()
        else:
            survivors.append((t.delay, i))
    # The cancel storm must have compacted: the heap holds (almost) only
    # live entries now, not n of them.
    assert len(sim._heap) < n // 2
    sim.run_all()
    # Survivors fire in (time, seq) order — seq increases with i here —
    # at exactly their scheduled times.
    assert fired == [(d, i) for d, i in sorted(survivors)]


def test_urgent_priority_survives_compaction():
    sim = Simulator()
    order = []
    sim._COMPACT_MIN = 8  # force compaction with a small population
    urgent = sim.event()
    urgent._ok = True
    urgent._value = "urgent"
    urgent.add_callback(lambda ev: order.append(ev.value))
    sim.schedule(urgent, 5.0, priority=Simulator.URGENT)
    normal = sim.timeout(5.0, "normal")
    normal.add_callback(lambda ev: order.append(ev.value))
    victims = [sim.timeout(9.0) for _ in range(64)]
    for v in victims:
        v.cancel()
    sim.run_all()
    assert order == ["urgent", "normal"]


# ---------------------------------------------------------------------------
# Bad-delay rejection
# ---------------------------------------------------------------------------


def test_nan_delay_rejected_everywhere():
    sim = Simulator()
    nan = math.nan
    with pytest.raises(EventLifecycleError):
        sim.timeout(nan)
    ev = sim.event()
    ev._ok = True
    with pytest.raises(EventLifecycleError):
        sim.schedule(ev, nan)
    ev2 = sim.event()
    ev2._ok = True
    with pytest.raises(EventLifecycleError):
        sim.schedule_many([(ev2, nan)])
    # Pooled-path validation: recycle a timeout, then ask for NaN.
    sim.timeout(0.0)
    sim.run_all()
    with pytest.raises(EventLifecycleError):
        sim.timeout(nan)


def test_negative_delay_rejected_everywhere():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    ev = sim.event()
    ev._ok = True
    with pytest.raises(EventLifecycleError):
        sim.schedule(ev, -1.0)
    ev2 = sim.event()
    ev2._ok = True
    with pytest.raises(EventLifecycleError):
        sim.schedule_many([(ev2, -1.0)])


def test_schedule_many_partial_failure_keeps_prior_pairs():
    sim = Simulator()
    fired = []
    good = sim.event()
    good._ok = True
    good._value = "ok"
    good.add_callback(lambda ev: fired.append(ev.value))
    bad = sim.event()
    bad._ok = True
    with pytest.raises(EventLifecycleError):
        sim.schedule_many([(good, 1.0), (bad, math.nan)])
    sim.run_all()
    assert fired == ["ok"]


# ---------------------------------------------------------------------------
# schedule_many equivalence
# ---------------------------------------------------------------------------


def _burst_run(batched: bool):
    sim = Simulator()
    fired = []
    pairs = []
    rng = random.Random(11)
    for i in range(500):
        ev = Event(sim)
        ev._ok = True
        ev._value = i
        ev.add_callback(lambda e: fired.append((sim.now, e.value)))
        pairs.append((ev, rng.uniform(0.0, 9.0)))
    if batched:
        assert sim.schedule_many(pairs) == len(pairs)
    else:
        for ev, delay in pairs:
            sim.schedule(ev, delay)
    sim.run_all()
    return fired


def test_schedule_many_matches_schedule_loop():
    assert _burst_run(batched=True) == _burst_run(batched=False)


# ---------------------------------------------------------------------------
# Timeout pooling and the cancelled-timeout graveyard
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAS_GETREFCOUNT,
                    reason="pooling needs sys.getrefcount")
def test_processed_timeout_is_recycled():
    sim = Simulator()
    t = sim.timeout(1.0)
    addr = id(t)
    del t  # kernel holds the only reference: eligible for the pool
    sim.run_all()
    t2 = sim.timeout(2.0, "again")
    # The pooled object is kept alive by the free list, so an identity
    # match proves reuse (no address-recycling ambiguity).
    assert id(t2) == addr
    assert sim.run(t2) == "again"


@pytest.mark.skipif(not HAS_GETREFCOUNT,
                    reason="graveyard reuse needs sys.getrefcount")
def test_cancelled_timeout_reused_only_when_unreferenced():
    sim = Simulator()
    held = sim.timeout(10.0, "held")
    held.cancel()
    # Still referenced by `held`: the graveyard probe must refuse it.
    other = sim.timeout(1.0, "fresh")
    assert other is not held
    addr = id(held)
    del held
    reused = sim.timeout(2.0, "reused")
    assert id(reused) == addr
    fired = []
    reused.add_callback(lambda ev: fired.append((sim.now, ev.value)))
    sim.run_all()
    # The reused timer fires once, at its new time, with its new value —
    # and the cancelled generation never fires.
    assert fired == [(2.0, "reused")]


def test_cancel_twice_is_idempotent_and_processed_cancel_raises():
    sim = Simulator()
    t = sim.timeout(1.0)
    assert t.cancel() is True
    assert t.cancel() is False
    done = sim.timeout(1.0)
    sim.run_all()
    with pytest.raises(EventLifecycleError):
        done.cancel()


def test_run_all_valve_raises():
    sim = Simulator()

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    Process(sim, forever(sim))
    with pytest.raises(StopSimulation):
        sim.run_all(max_events=100)


def test_heap_peak_and_events_processed_counters():
    sim = Simulator()
    timers = [sim.timeout(float(i)) for i in range(32)]
    assert len(timers) == 32
    sim.run_all()
    assert sim.heap_peak >= 32
    assert sim.events_processed == 32


# ---------------------------------------------------------------------------
# Transport batching: send_many / post_send_many
# ---------------------------------------------------------------------------


def _link_deliveries(batched: bool, services, queued_extra=None):
    sim = Simulator()
    deliveries = []
    link = LinkDirection(sim, deliver=lambda tx: deliveries.append(
        (sim.now, tx.payload)))
    txs = [Transmission(dst="peer", service_time=s, payload=i)
           for i, s in enumerate(services)]
    if batched:
        link.send_many(txs)
    else:
        for tx in txs:
            link.send(tx)
    if queued_extra is not None:
        # Arrives while the wire is busy: must queue behind the batch.
        link.send(Transmission(dst="peer", service_time=queued_extra,
                               payload="late"))
    sim.run_all()
    return deliveries, link


def test_send_many_matches_sequential_send():
    services = [0.5, 1.25, 0.25, 2.0, 0.125]
    got_b, link_b = _link_deliveries(True, services, queued_extra=0.75)
    got_s, link_s = _link_deliveries(False, services, queued_extra=0.75)
    assert got_b == got_s
    assert not link_b._busy and not link_s._busy
    assert link_b.busy_time == pytest.approx(link_s.busy_time)
    assert link_b.tx_count == link_s.tx_count == len(services) + 1


def test_send_many_matches_flow_shop_column():
    np = pytest.importorskip("numpy")
    from repro.net.segsim import flow_shop_completion_times

    services = [0.3, 0.7, 0.2, 1.1, 0.5, 0.4]
    deliveries, _ = _link_deliveries(True, services)
    expected = flow_shop_completion_times([[s] for s in services])[:, 0]
    assert np.allclose([t for t, _ in deliveries], expected)


def _via_stream_end(batched: bool, n: int = 24, size: int = 1024) -> float:
    from repro.bench.microbench import _two_nodes, _via_pair
    from repro.via.descriptors import Descriptor

    cluster = _two_nodes()
    sim = cluster.sim
    nic0, nic1 = _via_pair(cluster)

    def server():
        listener = nic1.listen(9)
        vi = yield from listener.wait_connection()
        for _ in range(n):
            vi.post_recv(Descriptor(memory=nic1.memory.register_now(size)))
        for _ in range(n):
            yield from vi.reap_recv()

    def client():
        vi = nic0.make_vi()
        yield from nic0.connect(vi, "node01", 9)
        mems = [nic0.memory.register_now(size) for _ in range(n)]
        descs = [Descriptor(memory=m, length=size) for m in mems]
        if batched:
            yield from vi.post_send_many(descs)
        else:
            for d in descs:
                yield from d_post(vi, d)
        assert vi.sends_posted == n

    def d_post(vi, d):
        yield from vi.post_send(d)

    srv = sim.process(server())
    sim.process(client())
    sim.run(srv)
    return sim.now


def test_post_send_many_timing_matches_sequential_posts():
    assert _via_stream_end(True) == pytest.approx(_via_stream_end(False))


def _link_deliveries_with_ready(batched: bool, units):
    """Like :func:`_link_deliveries` but each unit is ``(service_time,
    ready_at)`` — exercising the analytic-hold stretch where data is
    still trickling in when the wire would otherwise start."""
    sim = Simulator()
    deliveries = []
    link = LinkDirection(sim, deliver=lambda tx: deliveries.append(
        (sim.now, tx.payload)))
    txs = [Transmission(dst="peer", service_time=s, payload=i, ready_at=r)
           for i, (s, r) in enumerate(units)]
    if batched:
        link.send_many(txs)
    else:
        for tx in txs:
            link.send(tx)
    sim.run_all()
    return deliveries, link


@given(units=st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_send_many_property_matches_sequential(units):
    """For any mix of service times (zeros included) and ready_at
    stretches, the batched schedule is observationally identical to the
    per-completion callback chain: same delivery times, same payload
    order, same link accounting, and the wire ends idle."""
    got_b, link_b = _link_deliveries_with_ready(True, units)
    got_s, link_s = _link_deliveries_with_ready(False, units)
    assert got_b == got_s
    assert [p for _, p in got_b] == list(range(len(units)))
    assert not link_b._busy and not link_s._busy
    assert link_b.busy_time == pytest.approx(link_s.busy_time)
    assert link_b.tx_count == link_s.tx_count == len(units)


@given(services=st.lists(
    st.floats(min_value=0.0, max_value=5.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_send_many_property_matches_flow_shop(services):
    """Without ready_at stretches the burst is a single-machine flow
    shop: delivery times must equal segsim's first completion column."""
    pytest.importorskip("numpy")
    from repro.net.segsim import flow_shop_completion_times

    deliveries, _ = _link_deliveries(True, services)
    expected = flow_shop_completion_times([[s] for s in services])[:, 0]
    assert [t for t, _ in deliveries] == pytest.approx(list(expected))


# ---------------------------------------------------------------------------
# Figure tables stay bit-identical to the committed baselines
# ---------------------------------------------------------------------------


def _baseline_tables(name):
    path = os.path.join(BASELINES, f"BENCH_{name}.json")
    if not os.path.exists(path):  # pragma: no cover - fresh checkout
        pytest.skip(f"no committed baseline {path}")
    with open(path) as fh:
        return json.load(fh)["tables"]


def test_fig02_table_bit_identical_to_baseline():
    from repro.bench.figures import fig2_points

    table = fig2_points().run()
    assert table.to_dict() == _baseline_tables("fig02")["2"]


def test_fig04_quick_cells_bit_identical_to_baseline():
    """The quick axes are a subset of the committed full axes, so every
    quick-run cell must equal the committed value exactly — timeout
    pooling and batched segment scheduling change nothing observable."""
    from repro.bench.figures import fig4a_points, fig4b_points

    base = _baseline_tables("fig04")

    def rows_by_key(table_dict):
        cols = table_dict["columns"]
        return {row[0]: dict(zip(cols, row)) for row in table_dict["rows"]}

    lat = fig4a_points(sizes=[4, 256, 4096]).run().to_dict()
    committed = rows_by_key(base["4a"])
    for row in lat["rows"]:
        got = dict(zip(lat["columns"], row))
        assert got == committed[row[0]]

    bw = fig4b_points(sizes=[2048, 16384, 65536]).run().to_dict()
    committed = rows_by_key(base["4b"])
    for row in bw["rows"]:
        got = dict(zip(bw["columns"], row))
        assert got == committed[row[0]]


def test_kernel_suite_deterministic_columns_match_baseline():
    from repro.bench.microbench import (
        kernel_schedule_burst,
        kernel_timer_cancel,
        kernel_timer_wheel,
    )

    tables = _baseline_tables("kernel")["kernel"]
    cols = tables["columns"]
    committed = {row[0]: dict(zip(cols, row)) for row in tables["rows"]}
    for point in (kernel_timer_wheel(), kernel_timer_cancel(),
                  kernel_schedule_burst()):
        row = committed[point.workload]
        assert point.events == row["events"] == row["expected_events"]
        assert point.heap_peak == row["heap_peak"]


# ---------------------------------------------------------------------------
# Trace-point guard audit: every hot-path emit is behind `enabled`
# ---------------------------------------------------------------------------


def test_tracer_emits_are_guarded_in_hot_paths():
    """Every ``tracer.emit(`` call site in the transport and runtime
    layers must sit behind an ``if <tracer>.enabled:`` check so idle
    tracing costs one bool test (see repro/sim/trace.py)."""
    roots = [os.path.join(REPO, "src", "repro", d)
             for d in ("tcp", "via", "datacutter", "cluster")]
    unguarded = []
    for root in roots:
        for dirpath, _dirs, files in os.walk(root):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    lines = fh.readlines()
                for i, line in enumerate(lines):
                    if ".emit(" not in line or "tracer" not in line:
                        continue
                    window = "".join(lines[max(0, i - 3):i + 1])
                    if ".enabled" not in window:
                        unguarded.append(f"{path}:{i + 1}")
    assert not unguarded, f"unguarded tracer.emit sites: {unguarded}"
