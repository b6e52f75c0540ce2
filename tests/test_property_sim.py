"""Property-based tests (hypothesis) for the simulation kernel.

Invariants that must hold for arbitrary schedules:

* the clock never decreases and every timeout fires at exactly its due
  time;
* stores deliver every item exactly once, FIFO per store;
* resources never exceed capacity and serve FIFO;
* containers conserve their level (no unit created or destroyed);
* Welford tallies agree with NumPy to float precision, including under
  merge.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Resource, Simulator, Store, Tally
from repro.sim.rng import RandomStreams

small_floats = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)


class TestTimeoutProperties:
    @given(st.lists(small_floats, min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_order_at_exact_times(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.timeout(d).add_callback(lambda e, d=d: fired.append((sim.now, d)))
        sim.run()
        assert len(fired) == len(delays)
        times = [t for t, _ in fired]
        assert times == sorted(times)
        for t, d in fired:
            assert t == d

    @given(st.lists(small_floats, min_size=1, max_size=30), small_floats)
    @settings(max_examples=40, deadline=None)
    def test_run_until_processes_exactly_due_events(self, delays, horizon):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.timeout(d).add_callback(lambda e, d=d: fired.append(d))
        sim.run(until=horizon)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


class TestStoreProperties:
    @given(st.lists(st.integers(), min_size=0, max_size=60),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_every_item_delivered_once_fifo(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in range(len(items)):
                v = yield store.get()
                received.append(v)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == items

    @given(st.lists(st.tuples(st.integers(0, 1), small_floats),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_producers_preserve_per_producer_order(self, ops):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer(pid, delays):
            for i, d in enumerate(delays):
                yield sim.timeout(d)
                yield store.put((pid, i))

        delays = {0: [], 1: []}
        for pid, d in ops:
            delays[pid].append(d)
        total = len(ops)

        def consumer():
            for _ in range(total):
                v = yield store.get()
                received.append(v)

        sim.process(producer(0, delays[0]))
        sim.process(producer(1, delays[1]))
        sim.process(consumer())
        sim.run()
        for pid in (0, 1):
            seqs = [i for p, i in received if p == pid]
            assert seqs == sorted(seqs)


class TestResourceProperties:
    @given(st.integers(min_value=1, max_value=4),
           st.lists(small_floats, min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, capacity, durations):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        concurrency = {"now": 0, "max": 0}

        def job(d):
            req = res.request()
            yield req
            concurrency["now"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["now"])
            yield sim.timeout(d)
            concurrency["now"] -= 1
            res.release(req)

        for d in durations:
            sim.process(job(d))
        sim.run()
        assert concurrency["max"] <= capacity
        assert res.count == 0
        assert res.queue_length == 0

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_all_requests_eventually_granted(self, capacity, n):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        done = []

        def job(i):
            yield from res.use(1.0)
            done.append(i)

        for i in range(n):
            sim.process(job(i))
        sim.run()
        assert sorted(done) == list(range(n))


class TestContainerProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.tuples(st.booleans(), st.integers(1, 5)),
                 min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_level_conserved_and_bounded(self, init, ops):
        capacity = 100
        sim = Simulator()
        c = Container(sim, capacity=capacity, init=init)
        completed = {"puts": 0, "gets": 0}

        def actor(is_put, amount):
            if is_put:
                yield c.put(amount)
                completed["puts"] += amount
            else:
                yield c.get(amount)
                completed["gets"] += amount

        for is_put, amount in ops:
            sim.process(actor(is_put, amount))
        sim.run()
        assert 0 <= c.level <= capacity
        assert c.level == init + completed["puts"] - completed["gets"]


class TestTallyProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, xs):
        t = Tally()
        for x in xs:
            t.record(x)
        assert t.count == len(xs)
        np.testing.assert_allclose(t.mean, np.mean(xs), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(t.variance, np.var(xs, ddof=1), rtol=1e-6, atol=1e-9)
        assert t.min == min(xs)
        assert t.max == max(xs)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=0, max_size=50),
           st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=0, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, xs, ys):
        a, b, whole = Tally(), Tally(), Tally()
        for x in xs:
            a.record(x)
            whole.record(x)
        for y in ys:
            b.record(y)
            whole.record(y)
        a.merge(b)
        assert a.count == whole.count
        if whole.count:
            np.testing.assert_allclose(a.mean, whole.mean, rtol=1e-9, atol=1e-12)
            assert a.min == whole.min and a.max == whole.max
        if whole.count > 1:
            np.testing.assert_allclose(a.variance, whole.variance,
                                       rtol=1e-6, atol=1e-9)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_streams_reproducible(self, seed, name):
        a = RandomStreams(seed).stream(name).random(5)
        b = RandomStreams(seed).stream(name).random(5)
        assert (a == b).all()

    @given(st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_distinct_names_give_distinct_streams(self, seed):
        rs = RandomStreams(seed)
        a = rs.fresh_stream("alpha").random(8)
        b = rs.fresh_stream("beta").random(8)
        assert not (a == b).all()
