"""Unit tests for Resource / PriorityResource / Store / Container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Container,
    Interrupt,
    PriorityResource,
    Resource,
    Simulator,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_immediate_grant_within_capacity(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2
        sim.run()

    def test_queueing_beyond_capacity(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert r1.triggered
        assert not r2.triggered
        assert res.queue_length == 1
        res.release(r1)
        assert r2.triggered
        sim.run()

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(sim, res, name, hold):
            req = res.request()
            yield req
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        for i in range(3):
            sim.process(user(sim, res, f"u{i}", 1.0))
        sim.run()
        assert order == [("u0", 0.0), ("u1", 1.0), ("u2", 2.0)]

    def test_release_unheld_request_raises(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        res.release(r1)
        with pytest.raises(SimulationError):
            res.release(r1)

    def test_use_helper_charges_duration(self, sim):
        res = Resource(sim, capacity=1, name="cpu")
        done = []

        def job(sim, res, name, dur):
            yield from res.use(dur)
            done.append((name, sim.now))

        sim.process(job(sim, res, "a", 2.0))
        sim.process(job(sim, res, "b", 3.0))
        sim.run()
        assert done == [("a", 2.0), ("b", 5.0)]

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r2.cancel()
        assert res.queue_length == 0
        res.release(r1)
        assert not r2.triggered
        sim.run()

    def test_cancel_granted_request_releases(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r1.cancel()
        assert r2.triggered
        sim.run()

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_interrupted_waiter_cancels_cleanly(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        got_through = []

        def waiter(sim, res):
            req = res.request()
            try:
                yield req
                got_through.append(True)
            except Interrupt:
                req.cancel()

        p = sim.process(waiter(sim, res))

        def interrupter(sim):
            yield sim.timeout(1)
            p.interrupt()
            yield sim.timeout(1)
            res.release(holder)

        sim.process(interrupter(sim))
        sim.run()
        assert got_through == []
        assert res.count == 0


class TestPriorityResource:
    def test_low_priority_number_served_first(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        order = []

        def waiter(sim, res, name, prio):
            req = res.request(priority=prio)
            yield req
            order.append(name)
            res.release(req)

        sim.process(waiter(sim, res, "low-urgency", 5))
        sim.process(waiter(sim, res, "high-urgency", 0))

        def releaser(sim):
            yield sim.timeout(1)
            res.release(holder)

        sim.process(releaser(sim))
        sim.run()
        assert order == ["high-urgency", "low-urgency"]

    def test_equal_priority_is_fifo(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        order = []

        def waiter(sim, res, name):
            req = res.request(priority=1)
            yield req
            order.append(name)
            res.release(req)

        for i in range(4):
            sim.process(waiter(sim, res, i))

        def releaser(sim):
            yield sim.timeout(1)
            res.release(holder)

        sim.process(releaser(sim))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_cancel_from_priority_queue(self, sim):
        res = PriorityResource(sim, capacity=1)
        holder = res.request()
        r2 = res.request(priority=1)
        r3 = res.request(priority=2)
        r2.cancel()
        assert res.queue_length == 1
        res.release(holder)
        assert r3.triggered
        sim.run()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered
        sim.run()
        assert got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def consumer(sim, store):
            v = yield store.get()
            results.append((sim.now, v))

        def producer(sim, store):
            yield sim.timeout(3)
            yield store.put("late")

        sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert results == [(3.0, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def consumer(sim, store):
            for _ in range(5):
                v = yield store.get()
                out.append(v)

        sim.process(consumer(sim, store))
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_capacity_blocks_putters(self, sim):
        store = Store(sim, capacity=2)
        p1, p2, p3 = store.put(1), store.put(2), store.put(3)
        assert p1.triggered and p2.triggered
        assert not p3.triggered
        g = store.get()
        assert g.triggered
        assert p3.triggered  # freed slot goes to the queued putter
        sim.run()

    def test_try_put_try_get(self, sim):
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        ok, v = store.try_get()
        assert ok and v == "a"
        ok, v = store.try_get()
        assert not ok and v is None
        sim.run()

    def test_peek(self, sim):
        store = Store(sim)
        store.put("first")
        store.put("second")
        assert store.peek() == "first"
        assert store.size == 2
        sim.run()

    def test_peek_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            Store(sim).peek()

    def test_cancel_get(self, sim):
        store = Store(sim)
        g = store.get()
        store.cancel_get(g)
        store.put("x")
        assert not g.triggered
        assert store.size == 1
        sim.run()

    def test_cancel_put(self, sim):
        store = Store(sim, capacity=1)
        store.put("a")
        p = store.put("b")
        store.cancel_put(p)
        g1 = store.get()
        g2 = store.get()
        assert g1.triggered
        assert not g2.triggered
        sim.run()

    def test_multiple_blocked_getters_fifo(self, sim):
        store = Store(sim)
        results = []

        def consumer(sim, store, name):
            v = yield store.get()
            results.append((name, v))

        for i in range(3):
            sim.process(consumer(sim, store, i))

        def producer(sim, store):
            yield sim.timeout(1)
            for v in "abc":
                yield store.put(v)

        sim.process(producer(sim, store))
        sim.run()
        assert results == [(0, "a"), (1, "b"), (2, "c")]

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_put_nowait_try_put_try_get_schedule_nothing(self, sim):
        store = Store(sim, capacity=3)
        store.put_nowait("a")
        assert store.try_put("b") is True
        assert store.try_get() == (True, "a")
        assert store.size == 1
        assert sim.peek() == float("inf")
        sim.run()
        assert sim.events_processed == 0

    def test_put_nowait_hands_item_to_waiting_getter(self, sim):
        store = Store(sim, capacity=1)
        g = store.get()
        store.put_nowait("x")
        assert g.triggered and store.size == 0
        sim.run()
        assert g.value == "x"
        assert sim.events_processed == 1  # the getter's wake-up only

    def test_put_nowait_on_full_store_raises(self, sim):
        store = Store(sim, capacity=1, name="ring")
        store.put_nowait("a")
        with pytest.raises(SimulationError, match="ring"):
            store.put_nowait("b")
        assert store.try_put("b") is False
        assert store.size == 1

    def test_try_get_admits_blocked_putter(self, sim):
        store = Store(sim, capacity=1, name="ring")
        store.put("a")
        blocked = store.put("b")
        with pytest.raises(SimulationError, match="1 putter"):
            store.put_nowait("c")
        assert store.try_get() == (True, "a")
        assert blocked.triggered and store.peek() == "b"
        sim.run()
        assert sim.events_processed == 2  # the two put acknowledgements


class TestContainer:
    def test_initial_level(self, sim):
        c = Container(sim, capacity=10, init=4)
        assert c.level == 4

    def test_get_blocks_until_enough(self, sim):
        c = Container(sim, capacity=10, init=1)
        done = []

        def taker(sim, c):
            yield c.get(3)
            done.append(sim.now)

        def giver(sim, c):
            yield sim.timeout(1)
            yield c.put(1)
            yield sim.timeout(1)
            yield c.put(1)

        sim.process(taker(sim, c))
        sim.process(giver(sim, c))
        sim.run()
        assert done == [2.0]
        assert c.level == 0

    def test_put_blocks_at_capacity(self, sim):
        c = Container(sim, capacity=2, init=2)
        p = c.put(1)
        assert not p.triggered
        g = c.get(1)
        assert g.triggered
        assert p.triggered
        assert c.level == 2
        sim.run()

    def test_fifo_getters_big_head_blocks_small(self, sim):
        c = Container(sim, capacity=10, init=0)
        order = []

        def taker(sim, c, name, amount):
            yield c.get(amount)
            order.append(name)

        sim.process(taker(sim, c, "big", 5))
        sim.process(taker(sim, c, "small", 1))

        def giver(sim, c):
            yield sim.timeout(1)
            yield c.put(5)
            yield sim.timeout(1)
            yield c.put(1)

        sim.process(giver(sim, c))
        sim.run()
        # The big getter arrived first, so units go to it even though the
        # small one could have been served earlier.
        assert order == ["big", "small"]

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=0)
        with pytest.raises(ValueError):
            Container(sim, capacity=5, init=6)
        c = Container(sim, capacity=5)
        with pytest.raises(ValueError):
            c.get(0)
        with pytest.raises(ValueError):
            c.put(6)
        with pytest.raises(ValueError):
            c.put_nowait(0)
        with pytest.raises(ValueError):
            c.put_nowait(6)

    def test_get_above_capacity_raises_instead_of_blocking_the_queue(self, sim):
        # An unsatisfiable getter would wait at the head of the queue
        # forever and starve every getter behind it.
        c = Container(sim, capacity=4, init=4)
        with pytest.raises(ValueError, match="capacity"):
            c.get(5)
        g = c.get(1)
        assert g.triggered
        sim.run()
        assert c.level == 3

    def test_put_nowait_schedules_nothing(self, sim):
        c = Container(sim, capacity=5, init=0)
        c.put_nowait(2)
        assert c.level == 2
        assert sim.peek() == float("inf")

    def test_put_nowait_wakes_satisfied_getters(self, sim):
        c = Container(sim, capacity=5, init=0)
        g1, g2 = c.get(2), c.get(2)
        c.put_nowait(3)
        assert g1.triggered and not g2.triggered
        assert c.level == 1
        sim.run()
        assert sim.events_processed == 1

    def test_put_nowait_overflow_raises(self, sim):
        c = Container(sim, capacity=4, init=4, name="credits")
        with pytest.raises(SimulationError, match="credits"):
            c.put_nowait(1)
        assert c.level == 4

    def test_put_nowait_behind_queued_putter_raises(self, sim):
        # FIFO: units that would fit still may not overtake a queued putter.
        c = Container(sim, capacity=5, init=4)
        blocked = c.put(3)
        with pytest.raises(SimulationError, match="putter"):
            c.put_nowait(1)
        assert not blocked.triggered and c.level == 4


def _accepts_now(res, item):
    """Would a put of *item* be accepted at once (no queued putter)?"""
    if res._putters:
        return False
    if isinstance(res, Store):
        return len(res._items) < res.capacity
    return res.level + item <= res.capacity


def _run_script(kind, capacity, init, script, nowait):
    """Run *script* against a Store or Container and log what happened.

    Each actor starts at its own time and runs its ops in order: waited
    ``put``/``get``, a fire-and-forget ``ff`` put (issued only when the
    resource accepts at once), or a ``wait``.  With *nowait* the
    fire-and-forget puts use ``put_nowait``; otherwise ``put`` with the
    acknowledgement ignored.
    """
    sim = Simulator()
    if kind == "store":
        res = Store(sim, capacity=capacity)
    else:
        res = Container(sim, capacity=capacity, init=init)
    log = []
    issued = 0

    def actor(aid, start, ops):
        nonlocal issued
        yield sim.timeout(start)
        for i, (op, n) in enumerate(ops):
            item = (aid, i) if kind == "store" else n
            if op == "put":
                yield res.put(item)
                log.append((sim.now, aid, "put", item))
            elif op == "get":
                got = yield (res.get() if kind == "store" else res.get(n))
                log.append((sim.now, aid, "get", got if kind == "store" else n))
            elif op == "ff":
                if _accepts_now(res, item):
                    if nowait:
                        res.put_nowait(item)
                    else:
                        res.put(item)  # acknowledgement ignored
                    issued += 1
                    log.append((sim.now, aid, "ff", item))
            else:
                yield sim.timeout(n)

    for aid, (start, ops) in enumerate(script):
        sim.process(actor(aid, start, ops), name=f"actor{aid}")
    sim.run()
    state = list(res._items) if kind == "store" else res.level
    return log, state, sim.events_processed, issued


_op = st.tuples(st.sampled_from(["put", "get", "ff", "ff", "wait"]), st.integers(1, 3))
_script = st.lists(
    st.tuples(st.integers(0, 3), st.lists(_op, max_size=8)), min_size=1, max_size=5
)


class TestPutNowaitEquivalence:
    """``put_nowait`` is ``put`` minus its acknowledgement event: the same
    run, in the same order, with one event fewer per fire-and-forget put."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["store", "container"]),
        capacity=st.integers(3, 6),
        init=st.integers(0, 6),
        script=_script,
    )
    def test_same_log_one_event_fewer_per_put(self, kind, capacity, init, script):
        if kind == "store":
            capacity -= 2  # 1..4 items: full stores and queued putters
        init = min(init, capacity)
        acked = _run_script(kind, capacity, init, script, nowait=False)
        bare = _run_script(kind, capacity, init, script, nowait=True)
        log_a, state_a, events_a, issued_a = acked
        log_b, state_b, events_b, issued_b = bare
        assert log_b == log_a
        assert state_b == state_a
        assert issued_b == issued_a
        assert events_a - events_b == issued_a
