"""Tests for SocketVIA's RDMA transfer mode (push model, future work)."""

import pytest

from repro.cluster import Cluster
from repro.sockets import ProtocolAPI


@pytest.fixture
def cluster():
    c = Cluster(seed=21)
    c.add_fabric("clan")
    c.add_hosts("node", 2, cores=1)  # single core: host costs are visible
    return c


def rdma_api(cluster, threshold=32 * 1024, region=256 * 1024):
    return ProtocolAPI(
        cluster, "socketvia",
        rdma_threshold=threshold, rdma_region_bytes=region,
    )


def exchange(cluster, api, sizes, payloads=None):
    sim = cluster.sim
    got = []

    def server():
        listener = api.listen("node01", 5000)
        sock = yield from listener.accept()
        for _ in sizes:
            msg = yield from sock.recv_message()
            got.append((msg.size, msg.payload))

    def client():
        sock = api.socket("node00")
        yield from sock.connect(("node01", 5000))
        for i, size in enumerate(sizes):
            pl = payloads[i] if payloads else None
            yield from sock.send_message(size, payload=pl)

    srv = sim.process(server())
    sim.process(client())
    sim.run(srv)
    return got


class TestRdmaTransferMode:
    def test_large_message_arrives_intact(self, cluster):
        api = rdma_api(cluster)
        got = exchange(cluster, api, [300_000], payloads=[{"img": 7}])
        assert got == [(300_000, {"img": 7})]

    def test_small_messages_keep_fragment_path(self, cluster):
        api = rdma_api(cluster, threshold=32 * 1024)
        got = exchange(cluster, api, [100, 2048, 8192])
        assert [s for s, _ in got] == [100, 2048, 8192]

    def test_mixed_sizes_stay_ordered_per_path(self, cluster):
        """Large (RDMA) and small (fragment) messages all arrive; the
        paths are independent so cross-path order is not guaranteed,
        but nothing is lost or corrupted."""
        api = rdma_api(cluster)
        sizes = [100, 500_000, 2048, 400_000, 64]
        got = exchange(cluster, api, sizes, payloads=list(range(5)))
        assert sorted(s for s, _ in got) == sorted(sizes)
        assert sorted(p for _, p in got) == [0, 1, 2, 3, 4]

    def test_message_larger_than_region_is_split(self, cluster):
        api = rdma_api(cluster, threshold=16 * 1024, region=64 * 1024)
        got = exchange(cluster, api, [1_000_000])
        assert got[0][0] == 1_000_000

    def test_rdma_stream_drains_the_send_cq(self, cluster):
        """RDMA parts complete on the send CQ too; the RDMA path drains
        it, so a long stream leaves at most ``credits`` completions."""
        credits = 4
        api = ProtocolAPI(
            cluster, "socketvia", credits=credits,
            rdma_threshold=16 * 1024, rdma_region_bytes=64 * 1024,
        )
        sim = cluster.sim
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
                yield from sock.send_message(64 * 1024)

        srv = sim.process(server())
        sim.process(client())
        sim.run(srv)
        send_cq = sock_ref["c"].vi.send_cq
        assert send_cq.completions == 40
        assert send_cq.pending <= credits

    def test_receiver_host_cost_is_thin(self, cluster):
        """The push model's payoff: receiving 1 MB costs the target host
        microseconds, not the ~700 us of per-fragment processing."""
        size = 1 << 20
        api = rdma_api(cluster, threshold=1024)
        sim = cluster.sim
        host1 = cluster.host("node01")
        busy = {}

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            yield from sock.recv_message()

        def background():
            # Measure CPU availability on the receiving host while the
            # transfer is in flight: 100 block-sized compute slices that
            # the transport's host work can interleave with.
            yield sim.timeout(0.0001)
            t0 = sim.now
            for _ in range(100):
                yield from host1.compute(0.0001)
            busy["stretch"] = (sim.now - t0) / 0.01

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(size)

        srv = sim.process(server())
        sim.process(background())
        sim.process(client())
        sim.run()
        # The compute loop was delayed by (at most) a few reap slots.
        assert busy["stretch"] < 1.05

    def test_fragment_path_costs_receiver_more(self, cluster):
        """Same measurement without RDMA: per-fragment completion and
        copy work visibly compete with the computation."""
        size = 1 << 20
        api = ProtocolAPI(cluster, "socketvia")  # no RDMA
        sim = cluster.sim
        host1 = cluster.host("node01")
        busy = {}

        def server():
            listener = api.listen("node01", 5000)
            sock = yield from listener.accept()
            yield from sock.recv_message()

        def background():
            # Measure CPU availability on the receiving host while the
            # transfer is in flight: 100 block-sized compute slices that
            # the transport's host work can interleave with.
            yield sim.timeout(0.0001)
            t0 = sim.now
            for _ in range(100):
                yield from host1.compute(0.0001)
            busy["stretch"] = (sim.now - t0) / 0.01

        def client():
            sock = api.socket("node00")
            yield from sock.connect(("node01", 5000))
            yield from sock.send_message(size)

        sim.process(server())
        sim.process(background())
        sim.process(client())
        sim.run()
        assert busy["stretch"] > 1.05
