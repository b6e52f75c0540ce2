"""Protocol factory: one string selects the transport.

The paper's applications are "written using the sockets interface" and
moved between TCP and SocketVIA without code changes; this module is
the simulation's version of relinking against a different library::

    api = ProtocolAPI(cluster, "socketvia")     # or "tcp", "udp"
    listener = api.listen("node01", 5000)
    sock = api.socket("node00")
    yield from sock.connect(("node01", 5000))

The name → stack mapping lives in the transport registry
(:mod:`repro.transport.registry`); this module registers the built-in
backends and resolves names through it, so a new transport becomes
selectable with one :func:`~repro.transport.registry.register_transport`
call — no factory edits.  Stacks are created lazily per host and cached
on the host's service registry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.cluster.host import Host
from repro.cluster.topology import Cluster
from repro.net.model import ProtocolCostModel
from repro.sockets.api import BaseSocket, ListenerSocket
from repro.sockets.socketvia import SocketViaStack
from repro.tcp.stack import TcpStack
from repro.transport.registry import get_transport, register_transport
from repro.udp.stack import UdpStack

__all__ = ["ProtocolAPI"]

# The built-in backends.  "udp" borrows the TCP cost model: both ride
# the same kernel path, and the paper calibrates only the TCP figures.
register_transport("tcp", TcpStack, default_fabric="clan")
register_transport("socketvia", SocketViaStack, default_fabric="clan")
register_transport("udp", UdpStack, default_fabric="clan", model_name="tcp")


class ProtocolAPI:
    """Sockets for one protocol on one cluster.

    Parameters
    ----------
    cluster:
        The cluster to operate on.
    protocol:
        Any registered transport name: "tcp" (kernel sockets over cLAN
        LANE), "socketvia" (user-level sockets over VIA), "udp" (kernel
        datagrams), or a backend added via ``register_transport``.
    fabric:
        Override the transport's default fabric name (the WAN cache
        scenario runs its storage legs on ``"wan"``).
    model:
        Override the calibrated cost model (ablations).
    stack_options:
        Extra keyword arguments for the stack constructor (e.g.
        ``credits=`` for SocketVIA, ``window=`` for TCP).
    """

    def __init__(
        self,
        cluster: Cluster,
        protocol: str,
        fabric: Optional[str] = None,
        model: Optional[ProtocolCostModel] = None,
        **stack_options: Any,
    ) -> None:
        spec = get_transport(protocol)
        self.cluster = cluster
        self.protocol = protocol
        self._stack_cls = spec.stack_cls
        self.fabric_name = fabric or spec.default_fabric
        self.model = model or spec.default_model()
        self._stack_options = stack_options
        self._stacks: Dict[str, Any] = {}

    # -- host resolution --------------------------------------------------------------

    def _resolve(self, host: Union[str, Host]) -> Host:
        if isinstance(host, Host):
            return host
        return self.cluster.host(host)

    def stack(self, host: Union[str, Host]) -> Any:
        """The (lazily created) protocol stack on *host*.

        Stacks are shared cluster-wide per (host, protocol, fabric): two
        ``ProtocolAPI`` objects — e.g. two filter-group instances — use
        the same kernel/NIC on a host, exactly like two processes on one
        machine.  Stack options must agree with the first creator's.
        """
        h = self._resolve(host)
        stack = self._stacks.get(h.name)
        if stack is None:
            registry = h.services.setdefault("protocol_stacks", {})
            key = (self.protocol, self.fabric_name)
            stack = registry.get(key)
            if stack is None:
                stack = self._stack_cls(
                    h,
                    self.cluster.fabric(self.fabric_name),
                    model=self.model,
                    **self._stack_options,
                )
                registry[key] = stack
            self._stacks[h.name] = stack
        return stack

    # -- sockets -----------------------------------------------------------------------

    def socket(self, host: Union[str, Host]) -> BaseSocket:
        """A fresh unconnected socket on *host*."""
        return self.stack(host).socket()

    def listen(self, host: Union[str, Host], port: int) -> ListenerSocket:
        """Bind a listener at ``host:port``."""
        return self.stack(host).listen(port)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ProtocolAPI {self.protocol!r} fabric={self.fabric_name!r} "
            f"stacks={sorted(self._stacks)}>"
        )
