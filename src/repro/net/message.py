"""Message records exchanged by the simulated transports.

Payloads are ordinary Python objects carried by reference — the DES
times *sizes*, it does not serialize bytes.  ``size`` is therefore the
authoritative quantity for every cost model; ``payload`` rides along for
application logic (DataCutter buffers, query descriptors).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message", "next_message_id"]

_msg_counter = itertools.count(1)


def next_message_id() -> int:
    """Process-wide unique message id (diagnostics only)."""
    return next(_msg_counter)


@dataclass
class Message:
    """One application-level message on a connection.

    Attributes
    ----------
    size:
        Payload size in bytes (what all cost models consume).
    payload:
        Arbitrary application object (not copied, not serialized).
    kind:
        "data" for application traffic; transports use other kinds for
        control traffic ("credit", "fin", "syn", ...).
    sent_at:
        Simulated time the sender handed the message to the transport.
    msg_id:
        Unique id for tracing.
    """

    size: int
    payload: Any = None
    kind: str = "data"
    sent_at: float = field(default=0.0, compare=False)
    msg_id: int = field(default_factory=next_message_id, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size {self.size}")

