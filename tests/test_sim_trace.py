"""Unit tests for the structured tracer (repro.sim.trace)."""

from repro.sim import Simulator, Tracer


class TestTracer:
    def test_emit_without_listeners_is_free(self):
        tracer = Tracer()
        tracer.emit("tcp.segment", size=1460)  # no recording, no subscribers
        assert len(tracer.records) == 0

    def test_recording_captures_records(self):
        tracer = Tracer(clock=lambda: 42.0)
        tracer.recording = True
        tracer.emit("via.doorbell", vi=3)
        assert len(tracer.records) == 1
        rec = tracer.records[0]
        assert rec.time == 42.0
        assert rec.kind == "via.doorbell"
        assert rec["vi"] == 3

    def test_subscription_dispatch(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe("a", seen.append)
        tracer.emit("a", x=1)
        tracer.emit("b", x=2)
        assert len(seen) == 1 and seen[0]["x"] == 1

    def test_wildcard_subscription(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe("", seen.append)
        tracer.emit("a")
        tracer.emit("b")
        assert len(seen) == 2

    def test_of_kind_prefix_matching(self):
        tracer = Tracer()
        tracer.recording = True
        tracer.emit("tcp.segment")
        tracer.emit("tcp.segment.retx")
        tracer.emit("tcpx")
        assert len(tracer.of_kind("tcp.segment")) == 2
        assert len(tracer.of_kind("tcp")) == 2

    def test_ring_buffer_caps_records(self):
        tracer = Tracer(max_records=5)
        tracer.recording = True
        for i in range(10):
            tracer.emit("k", i=i)
        assert len(tracer.records) == 5
        assert tracer.records[0]["i"] == 5

    def test_clear(self):
        tracer = Tracer()
        tracer.recording = True
        tracer.emit("k")
        tracer.clear()
        assert len(tracer.records) == 0

    def test_bind_clock(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.bind_clock(lambda: sim.now)
        tracer.recording = True
        sim.timeout(3.5).add_callback(lambda e: tracer.emit("tick"))
        sim.run()
        assert tracer.records[0].time == 3.5
