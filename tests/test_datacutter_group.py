"""Unit tests for filter-group construction, validation, placement,
buffers and write schedulers."""

import pytest

from repro.datacutter import (
    DataBuffer,
    DemandDrivenScheduler,
    Filter,
    FilterGroup,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.errors import DataCutterError, FilterGraphError, PlacementError
from repro.sim import Simulator


class Dummy(Filter):
    def process(self, ctx):
        yield ctx.sim.timeout(0)


def linear_group(policy="dd"):
    g = FilterGroup("g", default_policy=policy)
    g.add_filter("a", Dummy, copies=2)
    g.add_filter("b", Dummy, copies=3)
    g.connect("s", "a", "b")
    return g


class TestDataBuffer:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataBuffer(size=-1)

    def test_buffer_ids_unique(self):
        assert DataBuffer(size=1).buffer_id != DataBuffer(size=1).buffer_id


class TestFilterGroupValidation:
    def test_valid_linear_group(self):
        linear_group().validate()

    def test_duplicate_filter(self):
        g = FilterGroup("g")
        g.add_filter("a", Dummy)
        with pytest.raises(FilterGraphError):
            g.add_filter("a", Dummy)

    def test_duplicate_stream(self):
        g = linear_group()
        with pytest.raises(FilterGraphError):
            g.connect("s", "a", "b")

    def test_unknown_endpoint(self):
        g = FilterGroup("g")
        g.add_filter("a", Dummy)
        with pytest.raises(FilterGraphError):
            g.connect("s", "a", "zzz")

    def test_cycle_detected(self):
        g = FilterGroup("g")
        for n in "abc":
            g.add_filter(n, Dummy)
        g.connect("s1", "a", "b")
        g.connect("s2", "b", "c")
        g.connect("s3", "c", "a")
        with pytest.raises(FilterGraphError, match="cycle"):
            g.validate()

    def test_cycle_error_names_the_cycle(self):
        g = FilterGroup("g")
        for n in "ab":
            g.add_filter(n, Dummy)
        g.connect("s1", "a", "b")
        g.connect("s2", "b", "a")
        with pytest.raises(FilterGraphError, match=r"\['a', 'b', 'a'\]"):
            g.topological_order()

    def test_topological_order_diamond_with_duplicated_stream(self):
        # A second stream between the same pair is one dependency: the
        # order depends on the declaration order alone.
        g = FilterGroup("g")
        for n in ("src", "left", "right", "sink"):
            g.add_filter(n, Dummy)
        g.connect("a", "src", "left")
        g.connect("b", "src", "right")
        g.connect("a2", "src", "left")
        g.connect("c", "left", "sink")
        g.connect("d", "right", "sink")
        assert g.topological_order() == ["src", "left", "right", "sink"]

    def test_isolated_filter_detected(self):
        g = linear_group()
        g.add_filter("lonely", Dummy)
        with pytest.raises(FilterGraphError, match="lonely"):
            g.validate()

    def test_empty_group(self):
        with pytest.raises(FilterGraphError):
            FilterGroup("g").validate()

    def test_zero_copies_rejected(self):
        g = FilterGroup("g")
        with pytest.raises(FilterGraphError):
            g.add_filter("a", Dummy, copies=0)

    def test_sources_and_sinks(self):
        g = linear_group()
        assert g.sources() == ["a"]
        assert g.sinks() == ["b"]

    def test_policy_inheritance_and_override(self):
        g = FilterGroup("g", default_policy="rr")
        g.add_filter("a", Dummy)
        g.add_filter("b", Dummy, policy="dd")
        assert g.policy_for("a") == "rr"
        assert g.policy_for("b") == "dd"


class TestPlacement:
    def test_explicit_placement(self):
        g = linear_group()
        p = g.place({"a": ["x", "y"], "b": ["z", "z", "z"]})
        assert p.host_for("b", 2) == "z"

    def test_explicit_placement_wrong_count(self):
        g = linear_group()
        with pytest.raises(PlacementError):
            g.place({"a": ["x"], "b": ["z", "z", "z"]})

    def test_explicit_placement_missing_filter(self):
        g = linear_group()
        with pytest.raises(PlacementError):
            g.place({"a": ["x", "y"]})

    def test_missing_assignment(self):
        g = linear_group()
        p = g.place({"a": ["h0", "h0"], "b": ["h0", "h0", "h0"]})
        with pytest.raises(PlacementError):
            p.host_for("nope", 0)


class TestSchedulers:
    def drain(self, sim, gen):
        p = sim.process(gen)
        sim.run(p)
        return p.value

    def test_factory(self):
        sim = Simulator()
        assert isinstance(make_scheduler("rr", sim, 2), RoundRobinScheduler)
        assert isinstance(make_scheduler("dd", sim, 2), DemandDrivenScheduler)
        with pytest.raises(DataCutterError):
            make_scheduler("magic", sim, 2)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(DataCutterError):
            make_scheduler("rr", sim, 0)
        with pytest.raises(DataCutterError):
            make_scheduler("rr", sim, 2, max_outstanding=0)

    def test_rr_strict_rotation(self):
        sim = Simulator()
        s = make_scheduler("rr", sim, 3, max_outstanding=10)
        picks = [self.drain(sim, s.acquire()) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_rr_head_of_line_blocking(self):
        """RR waits for the next-in-rotation slot even if others are free."""
        sim = Simulator()
        s = make_scheduler("rr", sim, 2, max_outstanding=1)
        assert self.drain(sim, s.acquire()) == 0
        assert self.drain(sim, s.acquire()) == 1
        # Rotation points at 0 again; 0 is full, 1 would be full too,
        # but even after acking 1, rotation still demands 0 first.
        got = []

        def taker():
            idx = yield from s.acquire()
            got.append((idx, sim.now))

        sim.process(taker())

        def acker():
            yield sim.timeout(1)
            s.on_ack(1)  # frees the *wrong* consumer for RR
            yield sim.timeout(1)
            s.on_ack(0)  # now the rotation target frees

        sim.process(acker())
        sim.run()
        assert got == [(0, 2.0)]

    def test_dd_picks_minimum_unacked(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 3, max_outstanding=10)
        a = self.drain(sim, s.acquire())
        b = self.drain(sim, s.acquire())
        c = self.drain(sim, s.acquire())
        assert sorted([a, b, c]) == [0, 1, 2]  # spreads one each
        s.on_ack(1)
        # consumer 1 now has 0 unacked; everyone else has 1.
        assert self.drain(sim, s.acquire()) == 1

    def test_dd_routes_around_full_consumer(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 2, max_outstanding=1)
        first = self.drain(sim, s.acquire())
        second = self.drain(sim, s.acquire())
        assert {first, second} == {0, 1}
        # Both full: next acquire waits for *any* ack (unlike RR).
        got = []

        def taker():
            idx = yield from s.acquire()
            got.append((idx, sim.now))

        sim.process(taker())

        def acker():
            yield sim.timeout(5)
            s.on_ack(1)

        sim.process(acker())
        sim.run()
        assert got == [(1, 5.0)]

    def test_over_ack_raises(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 2)
        with pytest.raises(DataCutterError):
            s.on_ack(0)

    def test_ack_delay_tally(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 1, max_outstanding=5)
        self.drain(sim, s.acquire())

        def acker():
            yield sim.timeout(3)
            s.on_ack(0)

        p = sim.process(acker())
        sim.run(p)
        assert s.ack_delay[0].mean == pytest.approx(3.0)
        assert s.sent_counts == [1]
        assert s.acked_counts == [1]
