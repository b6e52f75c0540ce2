"""Unified simulated sockets: one API over kernel TCP and SocketVIA."""

from repro.sockets.api import Address, BaseSocket, ListenerSocket

__all__ = [
    "Address",
    "BaseSocket",
    "ListenerSocket",
    "ProtocolAPI",
    "SocketViaStack",
    "SocketViaSocket",
]

# The factory and the SocketVIA backend sit above repro.transport, which
# itself builds on repro.sockets.api; loading them eagerly here would
# make ``import repro.transport`` circular.  PEP 562 keeps them lazy.
_LAZY = {
    "ProtocolAPI": "repro.sockets.factory",
    "SocketViaStack": "repro.sockets.socketvia",
    "SocketViaSocket": "repro.sockets.socketvia",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
