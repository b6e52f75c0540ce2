"""Integration tests for the DataCutter runtime over both transports."""

import pytest

from repro.cluster import Cluster
from repro.datacutter import (
    DataCutterRuntime,
    Filter,
    FilterGroup,
)
from repro.errors import DataCutterError


@pytest.fixture
def cluster():
    c = Cluster(seed=5)
    c.add_fabric("clan")
    c.add_hosts("node", 8)
    return c


class Producer(Filter):
    """Emits `count` buffers of `size` bytes."""

    def __init__(self, count=10, size=2048):
        self.count = count
        self.size = size

    def process(self, ctx):
        for i in range(self.count):
            yield from ctx.write_new(self.size, seq=i, origin=ctx.copy_index)


class Relay(Filter):
    """Forwards every buffer unchanged."""

    def process(self, ctx):
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            yield from ctx.write(buf)


class Collector(Filter):
    """Records every buffer it sees into ctx.state['got']."""

    def init(self, ctx):
        ctx.state["got"] = []

    def process(self, ctx):
        while True:
            buf = yield from ctx.read()
            if buf is None:
                return
            ctx.state["got"].append(buf)


def run_app(cluster, group, placement, n_uows=1, protocol="socketvia", **rt_kw):
    runtime = DataCutterRuntime(cluster, protocol=protocol, **rt_kw)
    app = runtime.instantiate(group, placement)
    uows = []

    def main():
        yield from app.start()
        for _ in range(n_uows):
            uow = yield from app.run_uow()
            uows.append(uow)
        yield from app.finalize()

    done = cluster.sim.process(main())
    cluster.sim.run(done)
    return app, uows


class TestPipelines:
    @pytest.mark.parametrize("protocol", ["tcp", "socketvia"])
    def test_two_stage_pipeline_delivers_all_buffers(self, cluster, protocol):
        g = FilterGroup("p2")
        g.add_filter("src", lambda: Producer(count=20, size=4096))
        g.add_filter("snk", Collector)
        g.connect("s", "src", "snk")
        app, _ = run_app(
            cluster, g, g.place({"src": ["node00"], "snk": ["node01"]}),
            protocol=protocol,
        )
        got = app.copy("snk").ctx.state["got"]
        assert len(got) == 20
        assert [b.meta["seq"] for b in got] == list(range(20))

    def test_three_stage_pipeline(self, cluster):
        g = FilterGroup("p3")
        g.add_filter("src", lambda: Producer(count=12, size=1024))
        g.add_filter("mid", Relay)
        g.add_filter("snk", Collector)
        g.connect("a", "src", "mid")
        g.connect("b", "mid", "snk")
        app, _ = run_app(
            cluster, g,
            g.place({"src": ["node00"], "mid": ["node01"], "snk": ["node02"]}),
        )
        got = app.copy("snk").ctx.state["got"]
        assert [b.meta["seq"] for b in got] == list(range(12))

    def test_transparent_copies_share_the_work(self, cluster):
        g = FilterGroup("copies", default_policy="dd")
        g.add_filter("src", lambda: Producer(count=30, size=2048))
        g.add_filter("work", Relay, copies=3)
        g.add_filter("snk", Collector)
        g.connect("in", "src", "work")
        g.connect("out", "work", "snk")
        app, _ = run_app(
            cluster, g,
            g.place({
                "src": ["node00"],
                "work": ["node01", "node02", "node03"],
                "snk": ["node04"],
            }),
        )
        got = app.copy("snk").ctx.state["got"]
        assert len(got) == 30
        # Every worker copy must have carried some buffers.
        sched = app.scheduler("src", 0, "in")
        assert all(c > 0 for c in sched.sent_counts)
        assert sum(sched.sent_counts) == 30

    def test_multiple_producer_copies_fan_in(self, cluster):
        g = FilterGroup("fanin")
        g.add_filter("src", lambda: Producer(count=10, size=512), copies=3)
        g.add_filter("snk", Collector)
        g.connect("s", "src", "snk")
        app, _ = run_app(
            cluster, g,
            g.place({
                "src": ["node00", "node01", "node02"],
                "snk": ["node03"],
            }),
        )
        got = app.copy("snk").ctx.state["got"]
        assert len(got) == 30
        assert sorted({b.meta["origin"] for b in got}) == [0, 1, 2]


class TestUnitOfWork:
    def test_multiple_uows_sequential(self, cluster):
        g = FilterGroup("uows")
        g.add_filter("src", lambda: Producer(count=5, size=256))
        g.add_filter("snk", Collector)
        g.connect("s", "src", "snk")
        app, uows = run_app(
            cluster, g, g.place({"src": ["node00"], "snk": ["node01"]}),
            n_uows=3,
        )
        got = app.copy("snk").ctx.state["got"]
        assert len(got) == 15
        assert sorted({b.uow_id for b in got}) == [1, 2, 3]
        assert [u.uow_id for u in uows] == [1, 2, 3]
        for a, b in zip(uows, uows[1:]):
            assert b.submitted_at >= a.completed_at

    def test_uow_elapsed_property(self, cluster):
        g = FilterGroup("t")
        g.add_filter("src", lambda: Producer(count=1, size=65536))
        g.add_filter("snk", Collector)
        g.connect("s", "src", "snk")
        _, uows = run_app(
            cluster, g, g.place({"src": ["node00"], "snk": ["node01"]})
        )
        assert uows[0].elapsed > 0

    def test_run_uow_before_start_raises(self, cluster):
        g = FilterGroup("t")
        g.add_filter("src", lambda: Producer(count=1))
        g.add_filter("snk", Collector)
        g.connect("s", "src", "snk")
        runtime = DataCutterRuntime(cluster)
        app = runtime.instantiate(g, g.place({"src": ["node00"], "snk": ["node01"]}))

        def main():
            yield from app.run_uow()

        p = cluster.sim.process(main())
        p.defused = True
        cluster.sim.run()
        assert isinstance(p.exception, DataCutterError)


class TestFilterHooks:
    def test_init_process_finalize_order(self, cluster):
        calls = []

        class Tracked(Filter):
            def init(self, ctx):
                calls.append("init")

            def process(self, ctx):
                calls.append("process")
                yield ctx.sim.timeout(0)

            def finalize(self, ctx):
                calls.append("finalize")

        g = FilterGroup("hooks")
        g.add_filter("only", Tracked)
        app, _ = run_app(cluster, g, g.place({"only": ["node00"]}), n_uows=2)
        assert calls == ["init", "process", "process", "finalize"]

    def test_generator_init(self, cluster):
        class SlowInit(Filter):
            def init(self, ctx):
                yield ctx.sim.timeout(0.5)
                ctx.state["ready"] = ctx.sim.now

            def process(self, ctx):
                yield ctx.sim.timeout(0)

        g = FilterGroup("ginit")
        g.add_filter("only", SlowInit)
        app, _ = run_app(cluster, g, g.place({"only": ["node00"]}))
        assert app.copy("only").ctx.state["ready"] >= 0.5

    def test_factory_returning_non_filter_rejected(self, cluster):
        g = FilterGroup("bad")
        g.add_filter("x", lambda: object())
        runtime = DataCutterRuntime(cluster)
        with pytest.raises(DataCutterError):
            runtime.instantiate(g, g.place({"x": ["node00"]}))


class TestMetrics:
    def test_record_builds_tally_and_series(self, cluster):
        class Recorder(Filter):
            def process(self, ctx):
                ctx.record("lat", 1.0)
                ctx.record("lat", 3.0)
                yield ctx.sim.timeout(0)

        g = FilterGroup("m")
        g.add_filter("only", Recorder)
        app, _ = run_app(cluster, g, g.place({"only": ["node00"]}))
        assert app.metrics["lat"].mean == pytest.approx(2.0)
        assert len(app.series["lat"]) == 2

    def test_context_stream_name_errors(self, cluster):
        class BadReader(Filter):
            def process(self, ctx):
                yield from ctx.read("nonexistent")

        g = FilterGroup("bad")
        g.add_filter("src", lambda: Producer(count=1))
        g.add_filter("snk", BadReader)
        g.connect("s", "src", "snk")
        runtime = DataCutterRuntime(cluster)
        app = runtime.instantiate(
            g, g.place({"src": ["node00"], "snk": ["node01"]})
        )

        def main():
            yield from app.start()
            yield from app.run_uow()

        p = cluster.sim.process(main())
        p.defused = True
        cluster.sim.run()
        assert isinstance(p.exception, DataCutterError)


class TestSchedulingBehavior:
    def test_dd_favors_fast_consumer(self, cluster):
        """A consumer 8x slower gets measurably fewer buffers under DD."""

        class SlowableWorker(Filter):
            def process(self, ctx):
                factor = 8.0 if ctx.copy_index == 0 else 1.0
                while True:
                    buf = yield from ctx.read()
                    if buf is None:
                        return
                    yield from ctx.compute(buf.size * 18e-9 * factor)

        g = FilterGroup("dd", default_policy="dd")
        g.add_filter("src", lambda: Producer(count=60, size=16384))
        g.add_filter("work", SlowableWorker, copies=3)
        g.connect("s", "src", "work")
        app, _ = run_app(
            cluster, g,
            g.place({
                "src": ["node00"],
                "work": ["node01", "node02", "node03"],
            }),
        )
        sent = app.scheduler("src", 0, "s").sent_counts
        assert sent[0] < sent[1]
        assert sent[0] < sent[2]
        assert sum(sent) == 60

    def test_rr_ignores_speed_differences(self, cluster):
        class SlowableWorker(Filter):
            def process(self, ctx):
                factor = 4.0 if ctx.copy_index == 0 else 1.0
                while True:
                    buf = yield from ctx.read()
                    if buf is None:
                        return
                    yield from ctx.compute(buf.size * 18e-9 * factor)

        g = FilterGroup("rr", default_policy="rr")
        g.add_filter("src", lambda: Producer(count=30, size=16384))
        g.add_filter("work", SlowableWorker, copies=3)
        g.connect("s", "src", "work")
        app, _ = run_app(
            cluster, g,
            g.place({
                "src": ["node00"],
                "work": ["node01", "node02", "node03"],
            }),
        )
        assert app.scheduler("src", 0, "s").sent_counts == [10, 10, 10]
