"""Failure-injection tests: partial teardown, crashes, extreme inputs.

A production runtime spends most of its subtlety on the unhappy paths;
these tests pin them down: receivers vanishing mid-stream, listeners
closing with connects queued, filters crashing mid-UOW, and — via
``repro.faults`` — a flapping link delaying a handshake and host
crashes rerouted around by demand-driven scheduling.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.apps.loadbalance import LoadBalanceConfig, run_loadbalance
from repro.cluster import Cluster, StaticSlowdown
from repro.datacutter import DataCutterRuntime, Filter, FilterGroup
from repro.errors import ConnectionRefused, ProtocolError, SocketClosedError
from repro.faults import FaultPlan, HostFault, LinkFault, injecting
from repro.sockets import ProtocolAPI


@pytest.fixture
def cluster():
    c = Cluster(seed=13)
    c.add_fabric("clan")
    c.add_hosts("node", 4)
    return c


def _faulty_cluster(plan):
    """The standard 4-node clan cluster, built with *plan* ambient —
    ``Cluster.__init__`` adopts the plan, so it must be installed
    before construction, not before ``sim.run``."""
    with injecting(plan):
        c = Cluster(seed=13)
        c.add_fabric("clan")
        c.add_hosts("node", 4)
    return c


class TestReceiverVanishesMidStream:
    @pytest.mark.parametrize("protocol", ["tcp", "socketvia"])
    def test_sender_drains_after_peer_close(self, cluster, protocol):
        """The peer closes after one message; a sender pushing far more
        than the flow-control window must complete, not deadlock."""
        api = ProtocolAPI(cluster, protocol)
        sim = cluster.sim

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            yield from sock.recv_message()
            sock.close()

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            for _ in range(8):
                yield from sock.send_message(200_000)
            return "drained"

        sim.process(server())
        cli = sim.process(client())
        assert sim.run(cli) == "drained"

    def test_tcp_recv_on_locally_closed_socket(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        sock = api.socket("node00")
        sock.close()
        with pytest.raises(SocketClosedError):
            next(sock.recv_message())


class TestListenerTeardown:
    def test_connect_after_listener_close_refused(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        sim = cluster.sim
        listener = api.listen("node01", 80)
        listener.close()

        def client():
            sock = api.socket("node00")
            try:
                yield from sock.connect(("node01", 80))
            except ConnectionRefused:
                return "refused"

        p = sim.process(client())
        assert sim.run(p) == "refused"

    def test_accept_on_closed_listener_raises(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        listener = api.listen("node01", 80)
        listener.close()
        with pytest.raises(SocketClosedError):
            next(listener.accept())


class TestFilterCrash:
    def test_filter_exception_surfaces_from_run(self, cluster):
        class Bomb(Filter):
            def process(self, ctx):
                yield ctx.sim.timeout(0.001)
                raise ValueError("filter bug")

        g = FilterGroup("crash")
        g.add_filter("bomb", Bomb)
        runtime = DataCutterRuntime(cluster)
        app = runtime.instantiate(g, g.place({"bomb": ["node00"]}))

        def main():
            yield from app.start()
            yield from app.run_uow()

        cluster.sim.process(main())
        with pytest.raises(ValueError, match="filter bug"):
            cluster.sim.run()

    def test_crash_in_one_copy_fails_the_uow_not_the_kernel(self, cluster):
        """Other copies keep their state; the failure is attributable."""

        class MaybeBomb(Filter):
            def process(self, ctx):
                yield ctx.sim.timeout(0.001)
                if ctx.copy_index == 1:
                    raise RuntimeError("copy 1 died")

        g = FilterGroup("partial-crash")
        g.add_filter("w", MaybeBomb, copies=3)
        runtime = DataCutterRuntime(cluster)
        app = runtime.instantiate(
            g, g.place({"w": ["node00", "node01", "node02"]})
        )

        def main():
            yield from app.start()
            try:
                yield from app.run_uow()
            except RuntimeError as exc:
                return str(exc)

        p = cluster.sim.process(main())
        assert cluster.sim.run(p) == "copy 1 died"


class TestExtremeInputs:
    def test_zero_byte_message_storm(self, cluster):
        """Hundreds of empty messages (end-of-work markers in disguise)
        must flow without dividing by zero anywhere."""
        api = ProtocolAPI(cluster, "socketvia")
        sim = cluster.sim
        n = 300

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            for _ in range(n):
                msg = yield from sock.recv_message()
                assert msg.size == 0

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            for _ in range(n):
                yield from sock.send_message(0)

        srv = sim.process(server())
        sim.process(client())
        sim.run(srv)

    def test_extreme_slowdown_factor(self, cluster):
        host = cluster.add_host("glacial", slowdown=StaticSlowdown(1e6))
        done = []

        def job():
            yield from host.compute(1e-6)
            done.append(cluster.sim.now)

        cluster.sim.process(job())
        cluster.sim.run()
        assert done[0] == pytest.approx(1.0)

    def test_giant_single_message(self, cluster):
        """A 64 MB message (4x the paper's image) through SocketVIA."""
        api = ProtocolAPI(cluster, "socketvia")
        sim = cluster.sim
        size = 64 * 1024 * 1024

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return msg.size

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            yield from sock.send_message(size)

        srv = sim.process(server())
        sim.process(client())
        assert sim.run(srv) == size


class TestConnectRetry:
    """Connection establishment against injected link faults.  The
    fabric never loses a frame, so a connect is one request and one
    wait: a flap only delays it."""

    def test_handshake_survives_flap_and_stays_idempotent(self):
        """A flap window buffers the request; the connect waits the
        window out, and the one request accepts exactly one socket."""
        window_end = 0.004
        plan = FaultPlan(
            name="flap-node01",
            links={"clan.node01.down": LinkFault(
                flap_windows=((0.0, window_end),))})
        cluster = _faulty_cluster(plan)
        api = ProtocolAPI(cluster, "tcp")
        sim = cluster.sim

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return msg.size

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            connected_at = sim.now
            yield from sock.send_message(1024)
            return connected_at

        srv = sim.process(server())
        cli = sim.process(client())
        assert sim.run(srv) == 1024
        assert cli.value >= window_end
        # The one request built exactly one server-side endpoint.
        assert len(api.stack("node01")._endpoints) == 1


def _two_hosts():
    c = Cluster(seed=1)
    c.add_fabric("clan")
    c.add_hosts("node", 2)
    return c


class _DropOneDataFrame:
    """Test-local stand-in for a link's fault state: it sits in the
    receive link's ``faults`` slot, drops the first frame larger than a
    control frame, and delivers every other frame unchanged."""

    def __init__(self, link):
        self.link = link
        self.dropped = 0

    def deliver(self, tx):
        if not self.dropped and tx.size > 1024:
            self.dropped += 1
            return
        self.link._deliver(tx)


class TestStreamDataFaultsAreProtocolErrors:
    """No data retransmission is modeled, so a data unit missing from a
    stream breaks reassembly.  The fabric never drops one; if it did,
    both transports must say so with a typed error naming the message,
    also under ``python -O`` (a bare ``assert`` would vanish there and
    TCP would deliver short messages as whole ones)."""

    @pytest.mark.parametrize("protocol", ["tcp", "socketvia"])
    def test_broken_reassembly_raises_protocol_error(self, protocol):
        cluster = _two_hosts()
        link = cluster.fabric("clan").port("node01").downlink
        link.faults = dropper = _DropOneDataFrame(link)
        api = ProtocolAPI(cluster, protocol)
        sim = cluster.sim

        def server():
            sock = yield from api.listen("node01", 80).accept()
            for _ in range(50):
                yield from sock.recv_message()

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            for _ in range(50):
                yield from sock.send_message(100_000)

        sim.process(client())
        srv = sim.process(server())
        with pytest.raises(ProtocolError,
                           match=r"node01.*message \d+: got \d+, "
                                 r"expected 100000"):
            sim.run(srv)
        assert dropper.dropped == 1

    def test_library_checks_survive_python_O(self):
        """``python -O`` strips ``assert`` statements, so the library
        states its checks as raises."""
        src = Path(repro.__file__).parent
        bare = [
            f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert bare == []


class TestHostCrashRescheduling:
    """Demand-driven scheduling degrades gracefully around a crash."""

    def test_dd_reroutes_and_completes_after_worker_crash(self):
        cfg = LoadBalanceConfig(protocol="tcp", policy="dd",
                                total_bytes=2 * 1024 * 1024)
        base = run_loadbalance(cfg)
        plan = FaultPlan(
            name="crash-worker01",
            hosts={"worker01": HostFault(crash_at=0.010, restart_at=0.030)})
        with injecting(plan):
            chaos = run_loadbalance(cfg)

        n_blocks = cfg.n_blocks
        # No block is lost: the crashed copy's deferred work replays at
        # restart and everything else reroutes to the survivors.
        assert sum(base.sent_counts) == n_blocks
        assert sum(chaos.sent_counts) == n_blocks
        assert sum(chaos.processed_counts) == n_blocks
        # The crashed worker handled measurably less than it did in the
        # fault-free run, and less than either surviving peer.
        assert chaos.sent_counts[1] < base.sent_counts[1]
        assert chaos.sent_counts[1] < chaos.sent_counts[0]
        assert chaos.sent_counts[1] < chaos.sent_counts[2]
        # Degradation, not collapse: the run finishes, merely later.
        assert chaos.execution_time > base.execution_time
