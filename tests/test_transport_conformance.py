"""Cross-backend transport conformance suite.

Every transport reachable through :class:`~repro.sockets.factory.
ProtocolAPI` must present the same :class:`~repro.sockets.api.BaseSocket`
behaviour — the paper's central property (applications move between
TCP and SocketVIA unchanged) enforced as a test matrix:

* connection-oriented backends (tcp, socketvia): connect /
  accept, intact FIFO message exchange, control datagrams, refusal,
  close-delivers-EOF, byte counters;
* udp joins for the surface it shares (BaseSocket conventions,
  connected-mode send/recv) plus its own datagram calls;
* a dummy in-test backend registered via ``temporary_transport`` runs
  the same matrix, proving a new transport plugs in through the
  registry with **no factory edits**.
"""

from dataclasses import dataclass
from typing import Any, Generator

import pytest

from repro.cluster import Cluster
from repro.cluster.link import Transmission
from repro.errors import ConnectionRefused, NetworkError, SocketClosedError
from repro.net import TCP_CLAN_LANE
from repro.net.message import Message
from repro.sockets import ProtocolAPI
from repro.sockets.socketvia import _CreditFrame, _FragmentHeader
from repro.tcp.packets import DataUnit
from repro.transport import (
    EndpointSocket,
    StackBase,
    get_transport,
    temporary_transport,
    transport_names,
)
from repro.transport.base import ControlDatagram
from repro.via.descriptors import Descriptor
from repro.via.nic import _DataFrame


# ---------------------------------------------------------------------------
# A deliberately minimal backend: StackBase scaffolding + a one-record
# data plane.  Registered per-test through the registry, never the factory.
# ---------------------------------------------------------------------------


@dataclass
class _Blob:
    """The dummy transport's only data-plane record."""

    dst_ep: int
    size: int
    kind: str
    payload: Any
    sent_at: float


class DummySocket(EndpointSocket):
    def _do_send(self, message: Message) -> Generator:
        yield from self.stack._charge_send(message.size)
        self.stack._transmit(
            self.peer_host,
            message.size,
            _Blob(self.peer_ep, message.size, message.kind,
                  message.payload, message.sent_at),
        )


class DummyStack(StackBase):
    tag = "dummy"
    socket_cls = DummySocket

    def _route_data(self, pkt) -> None:
        ep = self._endpoints.get(pkt.dst_ep)
        if ep is not None and not ep.closed:
            ep._deliver(Message(size=pkt.size, payload=pkt.payload,
                                kind=pkt.kind, sent_at=pkt.sent_at))


@pytest.fixture
def cluster():
    c = Cluster(seed=11)
    c.add_fabric("clan")
    c.add_hosts("node", 3)
    return c


def make_api(cluster, protocol):
    return ProtocolAPI(cluster, protocol)


def run_pair(cluster, server_gen, client_gen):
    sim = cluster.sim
    srv = sim.process(server_gen)
    cli = sim.process(client_gen)
    sim.run(sim.all_of([srv, cli]))
    return srv.value, cli.value


class ConnectedConformance:
    """The behaviour matrix; subclasses pick the protocol."""

    protocol: str = ""

    @pytest.fixture
    def api(self, cluster):
        return make_api(cluster, self.protocol)

    def test_roundtrip_fifo_intact(self, cluster, api):
        sizes = [1, 4096, 200_000]

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            out = []
            for _ in sizes:
                msg = yield from sock.recv_message()
                out.append((msg.size, msg.payload, msg.kind))
            return out

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            for i, size in enumerate(sizes):
                yield from sock.send_message(size, payload=i)
            return sock.bytes_sent

        got, sent_bytes = run_pair(cluster, server(), client())
        assert got == [(s, i, "data") for i, s in enumerate(sizes)]
        assert sent_bytes == sum(sizes)

    def test_control_datagram_bypasses_data_queue(self, cluster, api):
        acks = []

        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            sock.on_control("ack", lambda kind, payload, size: acks.append(
                (kind, payload, size)))
            msg = yield from sock.recv_message()
            return msg.size, sock.rx_pending

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            yield from sock.send_control(64, kind="ack", payload="token")
            yield from sock.send_message(1024)

        (size, pending), _ = run_pair(cluster, server(), client())
        assert size == 1024 and pending == 0
        assert acks == [("ack", "token", 64)]

    def test_connect_refused_without_listener(self, cluster, api):
        api.stack("node01")  # host up, nothing listening

        def client():
            sock = api.socket("node00")
            try:
                yield from sock.connect(("node01", 81))
            except ConnectionRefused:
                return "refused"
            return "accepted"

        assert cluster.sim.run(cluster.sim.process(client())) == "refused"

    def test_peer_close_delivers_eof(self, cluster, api):
        def server():
            listener = api.listen("node01", 80)
            sock = yield from listener.accept()
            msg = yield from sock.recv_message()
            try:
                yield from sock.recv_message()
            except SocketClosedError:
                return msg.size
            return None

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 80))
            yield from sock.send_message(512)
            sock.close()

        got, _ = run_pair(cluster, server(), client())
        assert got == 512

    def test_operations_on_unconnected_socket_raise(self, cluster, api):
        sock = api.socket("node00")
        with pytest.raises(SocketClosedError):
            next(sock.send_message(64))
        sock.close()
        with pytest.raises(SocketClosedError):
            next(sock.connect(("node01", 80)))


class TestTcpConformance(ConnectedConformance):
    protocol = "tcp"


class TestSocketViaConformance(ConnectedConformance):
    protocol = "socketvia"


class TestDummyBackendConformance(ConnectedConformance):
    """The whole matrix over an in-test backend: plugging a transport
    in takes a registry call, not a factory edit."""

    protocol = "dummy"

    @pytest.fixture
    def api(self, cluster):
        with temporary_transport("dummy", DummyStack, model=TCP_CLAN_LANE):
            yield make_api(cluster, "dummy")

    def test_visible_in_protocols_mapping_only_while_registered(self, api):
        assert "dummy" in transport_names()
        spec = get_transport("dummy")
        assert (spec.stack_cls, spec.default_fabric) == (DummyStack, "clan")

    def test_gone_after_scope_exit(self, cluster):
        assert "dummy" not in transport_names()
        with pytest.raises(NetworkError):
            make_api(cluster, "dummy")


class TestUdpSharedSurface:
    """UDP joins the conformance set for the surface it shares."""

    @pytest.fixture
    def api(self, cluster):
        return make_api(cluster, "udp")

    def test_connected_mode_uses_base_socket_surface(self, cluster, api):
        def server():
            sock = api.socket("node01").bind(9000)
            msg, src = yield from sock.recvfrom()
            return msg.size, msg.payload, src[0], sock.rx_pending

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 9000))
            yield from sock.send_message(2048, payload="dgram")
            return sock.bytes_sent

        (size, payload, src_host, pending), sent = run_pair(
            cluster, server(), client())
        assert (size, payload, src_host, pending) == (2048, "dgram", "node00", 0)
        assert sent == 2048

    def test_sendto_recvfrom_and_counters(self, cluster, api):
        def server():
            sock = api.socket("node01").bind(9001)
            out = []
            for _ in range(2):
                msg, src = yield from sock.recvfrom()
                out.append((msg.size, src))
            return out, sock.datagrams_received, sock.bytes_received

        def client():
            sock = api.socket("node00").bind(500)
            yield from sock.sendto(100, ("node01", 9001))
            yield from sock.sendto(200, ("node01", 9001))
            return sock.datagrams_sent

        (out, ndgrams, nbytes), sent = run_pair(cluster, server(), client())
        assert out == [(100, ("node00", 500)), (200, ("node00", 500))]
        assert (ndgrams, nbytes, sent) == (2, 300, 2)

    def test_listen_rejected_for_connectionless_transport(self, cluster, api):
        with pytest.raises(NetworkError, match="connectionless"):
            api.listen("node01", 9002)

    def test_closed_socket_raises_network_error(self, cluster, api):
        sock = api.socket("node00")
        sock.close()
        with pytest.raises(NetworkError):
            next(sock.sendto(64, ("node01", 9000)))
        with pytest.raises(NetworkError):
            next(sock.recvfrom())


# ---------------------------------------------------------------------------
# Wire records: every backend builds these once per frame, so they are
# slotted and carry no per-instance dict.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "record",
    [Transmission, ControlDatagram, DataUnit, Descriptor, _DataFrame,
     _FragmentHeader, _CreditFrame],
    ids=lambda cls: cls.__name__,
)
def test_per_frame_records_are_slotted(record):
    # ``__new__`` alone: an instance without its constructor's arguments.
    assert not hasattr(record.__new__(record), "__dict__")
