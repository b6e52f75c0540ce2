"""The pluggable transport registry.

One name selects a transport everywhere in the library: the
:class:`~repro.sockets.factory.ProtocolAPI` factory, the DataCutter
runtime and the benchmark drivers all resolve protocol strings here.
Adding a backend is a subclass plus one call — no factory edits::

    from repro.transport import StackBase, register_transport

    class MyStack(StackBase):
        tag = "mytransport"
        ...

    register_transport("mytransport", MyStack, model_name="tcp")
    api = ProtocolAPI(cluster, "mytransport")   # just works

The built-in transports (tcp, udp, socketvia) register themselves
when :mod:`repro.sockets.factory` is imported.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import NetworkError
from repro.net.model import ProtocolCostModel

__all__ = [
    "TransportSpec",
    "register_transport",
    "unregister_transport",
    "get_transport",
    "transport_names",
    "temporary_transport",
]


@dataclass(frozen=True)
class TransportSpec:
    """One registered transport backend.

    Attributes
    ----------
    name:
        The protocol string users select the transport by.
    stack_cls:
        Per-host stack class, called as ``stack_cls(host, switch,
        model=..., **options)`` (the :class:`~repro.transport.base.
        StackBase` constructor shape).
    default_fabric:
        Fabric the transport binds to unless overridden.
    model_name:
        Key into the calibrated model registry
        (:func:`repro.net.calibration.get_model`) supplying the default
        cost model; defaults to ``name``.
    model:
        Explicit default cost model; takes precedence over
        ``model_name`` (useful for in-test backends that are not in the
        calibration registry).
    """

    name: str
    stack_cls: type
    default_fabric: str = "clan"
    model_name: Optional[str] = None
    model: Optional[ProtocolCostModel] = None

    def default_model(self) -> ProtocolCostModel:
        """Resolve this transport's default cost model."""
        if self.model is not None:
            return self.model
        from repro.net.calibration import get_model

        return get_model(self.model_name or self.name)


_REGISTRY: Dict[str, TransportSpec] = {}


def register_transport(
    name: str,
    stack_cls: type,
    default_fabric: str = "clan",
    model_name: Optional[str] = None,
    model: Optional[ProtocolCostModel] = None,
) -> TransportSpec:
    """Register a transport backend under *name*.

    Raises :class:`~repro.errors.NetworkError` if the name is taken —
    re-registering a different stack under an existing name is always a
    bug (use :func:`unregister_transport` first, or
    :func:`temporary_transport` for test backends).
    """
    if name in _REGISTRY:
        raise NetworkError(
            f"transport {name!r} is already registered "
            f"(by {_REGISTRY[name].stack_cls.__name__})"
        )
    spec = TransportSpec(
        name=name,
        stack_cls=stack_cls,
        default_fabric=default_fabric,
        model_name=model_name,
        model=model,
    )
    _REGISTRY[name] = spec
    return spec


def unregister_transport(name: str) -> bool:
    """Remove a registered transport; returns whether it existed."""
    return _REGISTRY.pop(name, None) is not None


def get_transport(name: str) -> TransportSpec:
    """Look up a transport by name (raises with the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise NetworkError(
            f"unknown protocol {name!r}; have {sorted(_REGISTRY)}"
        ) from None


def transport_names() -> List[str]:
    """Sorted names of every registered transport."""
    return sorted(_REGISTRY)


@contextmanager
def temporary_transport(
    name: str, stack_cls: type, **kwargs
) -> Iterator[TransportSpec]:
    """Register a transport for the duration of a ``with`` block.

    The conformance suite uses this to prove a backend plugs in without
    factory edits and without leaking into other tests.
    """
    spec = register_transport(name, stack_cls, **kwargs)
    try:
        yield spec
    finally:
        unregister_transport(name)
