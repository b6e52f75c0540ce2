"""Direct unit tests for stream ports (repro.datacutter.streams) using a
fake in-memory socket, isolating the port logic from the transports."""

import pytest

from repro.datacutter import DataBuffer
from repro.datacutter.scheduling import make_scheduler
from repro.datacutter.streams import InputPort, OutputPort
from repro.errors import DataCutterError, StreamClosedError
from repro.sim import Simulator, Store


class FakeSocket:
    """Minimal in-memory stand-in for a connected BaseSocket pair."""

    def __init__(self, sim):
        self.sim = sim
        self._inbox = Store(sim)
        self.peer = None
        self.sent_controls = []
        self.closed = False

    @classmethod
    def pair(cls, sim):
        a, b = cls(sim), cls(sim)
        a.peer, b.peer = b, a
        return a, b

    # -- BaseSocket surface used by the ports --------------------------------

    def send_message(self, size, payload=None, kind="data"):
        ev = self.peer._inbox.put(
            type("Msg", (), {"size": size, "payload": payload, "kind": kind})()
        )
        ev.defused = True
        yield self.sim.timeout(0)

    def recv_message(self):
        from repro.errors import SocketClosedError

        msg = yield self._inbox.get()
        if msg is None:
            raise SocketClosedError("closed")
        return msg

    def send_control(self, size, kind="ack", payload=None):
        self.peer.sent_controls.append((kind, size))
        handler = self.peer._control_handlers.get(kind)
        if handler:
            handler(kind, payload, size)
        yield self.sim.timeout(0)

    _control_handlers: dict

    def on_control(self, kind, fn):
        if not hasattr(self, "_control_handlers"):
            self._control_handlers = {}
        self._control_handlers[kind] = fn

    def close(self):
        self.closed = True
        ev = self._inbox.put(None)
        ev.defused = True


@pytest.fixture
def sim():
    return Simulator()


def wire(sim, n_consumers=1, policy="dd", n_producers=1, max_outstanding=2):
    """One OutputPort fanned to n_consumers InputPorts over fake pairs."""
    sched = make_scheduler(policy, sim, n_consumers, max_outstanding=max_outstanding)
    out = OutputPort(sim, "s[0]", sched)
    inputs = []
    for j in range(n_consumers):
        a, b = FakeSocket.pair(sim)
        a._control_handlers = {}
        b._control_handlers = {}
        out.attach(j, a)
        inp = InputPort(sim, f"s->[{j}]", n_producers)
        inp.attach(0, b)
        inputs.append(inp)
    return out, inputs


class TestOutputPort:
    def test_write_counts_bytes(self, sim):
        out, (inp,) = wire(sim)

        def main():
            yield from out.write(DataBuffer(size=100))
            yield from out.write(DataBuffer(size=50))

        sim.run(sim.process(main()))
        assert out.buffers_written == 2
        assert out.bytes_written == 150

    def test_write_after_close_raises(self, sim):
        out, _ = wire(sim)
        out.close()

        def main():
            yield from out.write(DataBuffer(size=1))

        p = sim.process(main())
        p.defused = True
        sim.run()
        assert isinstance(p.exception, StreamClosedError)

    def test_eow_broadcast_to_every_consumer(self, sim):
        out, inputs = wire(sim, n_consumers=3)

        def main():
            yield from out.send_eow(1)

        sim.run(sim.process(main()))

        results = []

        def reader(inp):
            v = yield from inp.read()
            results.append(v)

        for inp in inputs:
            sim.process(reader(inp))
        sim.run()
        assert results == [None, None, None]

    @pytest.mark.parametrize("op", ["write", "send_eow"])
    def test_unconnected_consumer_raises(self, sim, op):
        """A port whose consumer copy was never attached raises a typed
        error (one that ``python -O`` keeps) naming the stream."""
        sched = make_scheduler("rr", sim, 2, max_outstanding=2)
        out = OutputPort(sim, "s[0]", sched)
        a, _ = FakeSocket.pair(sim)
        a._control_handlers = {}
        out.attach(0, a)

        def main():
            if op == "write":
                yield from out.write(DataBuffer(size=1))  # copy 0
                yield from out.write(DataBuffer(size=1))  # copy 1
            else:
                yield from out.send_eow(1)

        p = sim.process(main())
        p.defused = True
        sim.run()
        assert isinstance(p.exception, DataCutterError)
        assert "'s[0]'" in str(p.exception)
        assert "consumer copy 1" in str(p.exception)


class TestInputPort:
    def test_read_acks_before_delivering(self, sim):
        out, (inp,) = wire(sim)
        got = []

        def producer():
            yield from out.write(DataBuffer(size=10))

        def consumer():
            buf = yield from inp.read()
            got.append(buf.size)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [10]
        assert out.scheduler.acked_counts == [1]
        assert inp.buffers_read == 1
        assert inp.bytes_read == 10

    def test_eow_counted_per_producer(self, sim):
        """With 2 producers, read() returns None only after both EOWs."""
        sched_a = make_scheduler("dd", sim, 1)
        sched_b = make_scheduler("dd", sim, 1)
        out_a = OutputPort(sim, "a", sched_a)
        out_b = OutputPort(sim, "b", sched_b)
        inp = InputPort(sim, "in", n_producers=2)
        sa, ra = FakeSocket.pair(sim)
        sb, rb = FakeSocket.pair(sim)
        for s in (sa, ra, sb, rb):
            s._control_handlers = {}
        out_a.attach(0, sa)
        out_b.attach(0, sb)
        inp.attach(0, ra)
        inp.attach(1, rb)
        trace = []

        def producers():
            yield from out_a.write(DataBuffer(size=5))
            yield from out_a.send_eow(1)
            yield from out_b.send_eow(1)

        def consumer():
            while True:
                buf = yield from inp.read()
                trace.append(buf.size if buf else None)
                if buf is None:
                    return

        sim.process(producers())
        sim.process(consumer())
        sim.run()
        assert trace == [5, None]

    def test_eow_rearm_for_next_uow(self, sim):
        out, (inp,) = wire(sim)
        trace = []

        def producer():
            yield from out.send_eow(1)
            yield from out.write(DataBuffer(size=7))
            yield from out.send_eow(2)

        def consumer():
            for _ in range(3):
                buf = yield from inp.read()
                trace.append(buf.size if buf else None)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert trace == [None, 7, None]

    def test_backlog_property(self, sim):
        out, (inp,) = wire(sim, max_outstanding=8)

        def producer():
            for _ in range(4):
                yield from out.write(DataBuffer(size=1))

        sim.run(sim.process(producer()))
        assert inp.backlog == 4
