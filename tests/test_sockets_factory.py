"""Unit tests for the protocol factory (repro.sockets.factory)."""

import pytest

from repro.cluster import Cluster
from repro.errors import NetworkError, TopologyError
from repro.net import TCP_CLAN_LANE, get_model
from repro.sockets import ProtocolAPI
from repro.sockets.socketvia import SocketViaStack
from repro.tcp import TcpStack
from repro.transport import (
    StackBase,
    register_transport,
    temporary_transport,
    transport_names,
    unregister_transport,
)
from repro.udp.stack import UdpStack


@pytest.fixture
def cluster():
    c = Cluster(seed=8)
    c.add_fabric("clan")
    c.add_hosts("node", 3)
    return c


class TestProtocolSelection:
    def test_known_protocols(self):
        assert {"tcp", "socketvia", "udp"} <= set(transport_names())

    def test_unknown_protocol_rejected(self, cluster):
        with pytest.raises(NetworkError, match="unknown protocol"):
            ProtocolAPI(cluster, "quic")

    def test_unknown_host_rejected(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        with pytest.raises(TopologyError, match="no host"):
            api.stack("node99")
        with pytest.raises(TopologyError):
            api.listen("node99", 80)

    def test_stack_classes(self, cluster):
        assert isinstance(ProtocolAPI(cluster, "tcp").stack("node00"), TcpStack)
        assert isinstance(
            ProtocolAPI(cluster, "socketvia").stack("node01"), SocketViaStack
        )
        assert isinstance(ProtocolAPI(cluster, "udp").stack("node02"), UdpStack)

    def test_default_models(self, cluster):
        assert ProtocolAPI(cluster, "tcp").model is TCP_CLAN_LANE
        assert ProtocolAPI(cluster, "udp").model is TCP_CLAN_LANE
        assert ProtocolAPI(cluster, "socketvia").model is get_model("socketvia")

    def test_default_fabrics(self, cluster):
        for protocol in ("tcp", "socketvia", "udp"):
            assert ProtocolAPI(cluster, protocol).fabric_name == "clan"

    def test_model_override(self, cluster):
        fast = TCP_CLAN_LANE.with_updates(o_send_seg=1e-6, o_recv_seg=1e-6)
        api = ProtocolAPI(cluster, "tcp", model=fast)
        assert api.stack("node00").model is fast

    def test_stack_options_forwarded(self, cluster):
        api = ProtocolAPI(cluster, "socketvia", credits=7)
        assert api.stack("node00").credits == 7

    def test_host_accepts_object_or_name(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        host = cluster.host("node00")
        assert api.stack(host) is api.stack("node00")


class TestRegistry:
    def test_double_registration_rejected(self):
        with pytest.raises(NetworkError, match="already registered"):
            register_transport("tcp", TcpStack)

    def test_runtime_registration_needs_no_factory_edits(self, cluster):
        class NullStack(StackBase):
            tag = "null"

        with temporary_transport("null", NullStack):
            api = ProtocolAPI(cluster, "null", model=TCP_CLAN_LANE)
            assert isinstance(api.stack("node00"), NullStack)
        with pytest.raises(NetworkError):
            ProtocolAPI(cluster, "null")

    def test_unregister_unknown_is_noop(self):
        assert unregister_transport("never-was") is False


class TestStackSharing:
    def test_same_api_reuses_stack(self, cluster):
        api = ProtocolAPI(cluster, "tcp")
        assert api.stack("node00") is api.stack("node00")

    def test_two_apis_share_host_stack(self, cluster):
        a = ProtocolAPI(cluster, "tcp")
        b = ProtocolAPI(cluster, "tcp")
        assert a.stack("node00") is b.stack("node00")

    def test_different_protocols_get_different_stacks(self, cluster):
        a = ProtocolAPI(cluster, "tcp").stack("node00")
        b = ProtocolAPI(cluster, "socketvia").stack("node00")
        assert a is not b

    def test_tcp_over_both_fabrics_coexists(self, cluster):
        # The WAN cache scenario's shape: one protocol, a stack per fabric.
        cluster.add_fabric("wan")
        clan = ProtocolAPI(cluster, "tcp").stack("node00")
        wan = ProtocolAPI(cluster, "tcp", fabric="wan").stack("node00")
        assert clan is not wan
        assert wan.switch is cluster.fabric("wan")
        assert ProtocolAPI(cluster, "tcp", fabric="wan").stack("node00") is wan
