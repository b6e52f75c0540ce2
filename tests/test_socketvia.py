"""Unit tests for the SocketVIA user-level sockets layer."""

import pytest

from repro.cluster import Cluster
from repro.errors import ConnectionRefused, ProtocolError, SocketClosedError
from repro.sockets import ProtocolAPI


@pytest.fixture
def cluster():
    c = Cluster(seed=3)
    c.add_fabric("clan")
    c.add_hosts("node", 3)
    return c


@pytest.fixture
def api(cluster):
    return ProtocolAPI(cluster, "socketvia")


def run_pair(cluster, server_gen, client_gen):
    sim = cluster.sim
    srv = sim.process(server_gen)
    cli = sim.process(client_gen)
    sim.run(sim.all_of([srv, cli]))
    return srv.value, cli.value


class TestConnection:
    def test_connect_accept_roundtrip(self, cluster, api):
        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return msg.payload

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(256, payload="over-via")

        got, _ = run_pair(cluster, server(), client())
        assert got == "over-via"

    def test_connect_refused(self, cluster, api):
        api.stack("node01")  # host up, nothing listening

        def client():
            sock = api.socket("node00")
            try:
                yield from sock.connect(("node01", 5001))
            except ConnectionRefused:
                return "refused"

        p = cluster.sim.process(client())
        assert cluster.sim.run(p) == "refused"

    def test_multiple_connections_share_nic(self, cluster, api):
        seen = []

        def server():
            listener = api.listen("node02", 5000)
            socks = []
            for _ in range(2):
                socks.append((yield from listener.accept()))
            for s in socks:
                msg = yield from s.recv_message()
                seen.append(msg.payload)

        def client(host, tag):
            sock = api.socket(host)
            yield from sock.connect(("node02", 5000))
            yield from sock.send_message(64, payload=tag)

        sim = cluster.sim
        srv = sim.process(server())
        sim.process(client("node00", "a"))
        sim.process(client("node01", "b"))
        sim.run(srv)
        assert sorted(seen) == ["a", "b"]


class TestDataTransfer:
    @pytest.mark.parametrize("size", [0, 1, 8192, 8193, 65536, 500_000])
    def test_messages_arrive_intact(self, cluster, api, size):
        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return (msg.size, msg.payload)

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(size, payload=("blob", size))

        got, _ = run_pair(cluster, server(), client())
        assert got == (size, ("blob", size))

    def test_fifo_ordering(self, cluster, api):
        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            out = []
            for _ in range(12):
                msg = yield from sock.recv_message()
                out.append(msg.payload)
            return out

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            for i in range(12):
                yield from sock.send_message(3000, payload=i)

        got, _ = run_pair(cluster, server(), client())
        assert got == list(range(12))

    def test_large_message_exceeding_credit_window(self, cluster):
        """A message needing more fragments than there are credits must
        still complete (credits recycle through the receiver)."""
        api = ProtocolAPI(cluster, "socketvia", credits=4)
        size = 4 * 8192 * 5  # 20 fragments through a 4-credit window

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return msg.size

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(size)

        got, _ = run_pair(cluster, server(), client())
        assert got == size

    def test_credits_bound_in_flight_fragments(self, cluster):
        """At any instant the sender has spent at most `credits` credits
        that have not yet been returned."""
        credits = 4
        api = ProtocolAPI(cluster, "socketvia", credits=credits)
        sock_ref = {}

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            for _ in range(10):
                yield from sock.recv_message()

        def client():
            sock = api.socket("node00")
            sock_ref["c"] = sock
            yield from sock.connect(("node01", 5000))
            for _ in range(10):
                yield from sock.send_message(8192)

        sim = cluster.sim
        done = sim.all_of([sim.process(server()), sim.process(client())])
        levels = []
        # Sample the sender's credit level after every processed event.
        while not done.processed:
            sim.step()
            sock = sock_ref.get("c")
            if sock is not None and sock.vi is not None:
                levels.append(sock._credits.level)
        assert min(levels) >= 0
        assert max(levels) <= credits
        # The window was actually exercised, not merely observed idle.
        assert min(levels) < credits

    def test_bidirectional_traffic(self, cluster, api):
        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            for _ in range(3):
                msg = yield from sock.recv_message()
                yield from sock.send_message(msg.size, payload=msg.payload * 2)

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            out = []
            for i in range(3):
                yield from sock.send_message(100, payload=i)
                msg = yield from sock.recv_message()
                out.append(msg.payload)
            return out

        _, got = run_pair(cluster, server(), client())
        assert got == [0, 2, 4]


class TestSendCompletionReaping:
    """Send descriptors are reaped from the send CQ when a buffer is
    needed; no reaper process runs."""

    def test_stream_leaves_at_most_credits_unreaped(self, cluster):
        credits = 4
        api = ProtocolAPI(cluster, "socketvia", credits=credits)
        sock_ref = {}

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            for _ in range(40):
                yield from sock.recv_message()

        def client():
            sock = sock_ref["c"] = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            for _ in range(40):
                yield from sock.send_message(8192)

        run_pair(cluster, server(), client())
        vi = sock_ref["c"].vi
        assert vi.send_cq.completions == 40
        assert vi.send_cq.pending <= credits
        assert sock_ref["c"]._send_pool.size + vi.send_cq.pending == credits

    def test_empty_pool_with_a_credit_held_is_a_protocol_error(self, cluster):
        """Break the invariant by hand: take every free send buffer away.
        The sender then holds a credit with no buffer to fill, which would
        block it forever; it raises instead, naming the host and VI."""
        api = ProtocolAPI(cluster, "socketvia", credits=4)

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            yield from sock.recv_message()

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            for _ in range(4):
                yield sock._send_pool.get()
            try:
                yield from sock.send_message(100)
            except ProtocolError as exc:
                return str(exc), sock.vi.name

        sim = cluster.sim
        sim.process(server())
        message, vi_name = sim.run(sim.process(client()))
        assert "send buffers exhausted at node00" in message
        assert f"(VI {vi_name})" in message


class TestClose:
    def test_peer_close_delivers_eof(self, cluster, api):
        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            try:
                yield from sock.recv_message()
            except SocketClosedError:
                return msg.payload

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(10, payload="final")
            sock.close()

        got, _ = run_pair(cluster, server(), client())
        assert got == "final"


class TestSocketViaTiming:
    def test_small_message_latency_matches_paper(self, cluster, api):
        sim = cluster.sim

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            return sim.now - msg.sent_at

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield sim.timeout(1.0)
            yield from sock.send_message(4)

        dt, _ = run_pair(cluster, server(), client())
        # Paper: 9.5 us small-message latency.
        assert dt == pytest.approx(9.5e-6, rel=0.03)

    def test_sender_host_time_is_thin(self, cluster, api):
        """SocketVIA send of 8 KB occupies the sending host for ~7 us,
        not the ~86 us the fragment spends on the wire."""
        sim = cluster.sim
        model = api.model

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            yield from sock.recv_message()

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield sim.timeout(1.0)
            t0 = sim.now
            yield from sock.send_message(8192)
            return sim.now - t0

        _, host_time = run_pair(cluster, server(), client())
        assert host_time == pytest.approx(model.host_send_time(8192), rel=1e-6)
        assert host_time < 0.15 * model.wire_unit_service(8192)

    def test_socketvia_faster_than_tcp_end_to_end(self, cluster):
        """Integration: the same app-level exchange, both protocols."""
        results = {}
        for proto, port in (("tcp", 80), ("socketvia", 5000)):
            api = ProtocolAPI(cluster, proto)
            sim = cluster.sim
            out = {}

            def server(api=api, port=port, out=out):
                listener = api.listen("node01", port)
                sock = yield from listener.accept()
                msg = yield from sock.recv_message()
                out["dt"] = cluster.sim.now - msg.sent_at

            def client(api=api, port=port):
                sock = api.socket("node00")
                yield from sock.connect(("node01", port))
                yield from sock.send_message(1024)

            srv = sim.process(server())
            sim.process(client())
            sim.run(srv)
            results[proto] = out["dt"]
        # At 1 KB the wire gap already dominates SocketVIA's path, so the
        # end-to-end gap is ~2.2x (it is ~5x at 4 bytes).
        assert results["socketvia"] < results["tcp"] / 2
