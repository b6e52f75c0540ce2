"""Wire records exchanged by the simulated kernel TCP stack.

Connection management (SYN / SYN-ACK / FIN) and out-of-band control
datagrams are the shared transport-core records — TCP adds nothing to
them beyond the names; this module keeps the TCP vocabulary as aliases.
Only :class:`DataUnit`, the windowed transfer unit, is TCP-specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.transport.base import (
    CTRL_BYTES,
    ConnectReply,
    ConnectRequest,
    ControlDatagram,
    Shutdown,
)

__all__ = [
    "SynPacket",
    "SynAckPacket",
    "DataUnit",
    "FinPacket",
    "CtrlDatagram",
    "CTRL_BYTES",
]

#: Active-open request (shared transport-core record).
SynPacket = ConnectRequest
#: Passive-open reply; ``accepted`` False models connection refused.
SynAckPacket = ConnectReply
#: Orderly close marker.
FinPacket = Shutdown
#: Small out-of-band datagram, exempt from windowing and reassembly.
CtrlDatagram = ControlDatagram


@dataclass
class DataUnit:
    """One transfer unit of an application message.

    A message larger than the stack's ``max_unit`` is sent as several
    units; ``offset``/``total_size`` let the receiver reassemble, and
    ``wnd`` is the number of window bytes this unit holds (returned to
    the sender when the application consumes the message).
    """

    dst_ep: int
    msg_id: int
    kind: str
    total_size: int
    offset: int
    size: int
    is_last: bool
    wnd: int
    payload: Any = None  # carried only on the last unit
    sent_at: float = 0.0
