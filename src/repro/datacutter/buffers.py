"""Data buffers and end-of-work markers (the filter-stream currency).

A :class:`DataBuffer` is "an array of data elements transferred from one
filter to another" (paper Section 4.1).  The simulation carries sizes
and metadata, not bytes; ``meta`` is the place applications stash chunk
coordinates, query ids and timestamps.

``EOW`` is the special marker the runtime sends after the last buffer
of a unit of work (Figure 3a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["DataBuffer", "EOW", "BUFFER_HEADER_BYTES", "EOW_BYTES", "ACK_BYTES"]

#: Stream-protocol header carried by every data buffer on the wire.
BUFFER_HEADER_BYTES = 32
#: Wire size of an end-of-work marker.
EOW_BYTES = 32
#: Wire size of a consumption acknowledgment (demand-driven protocol).
ACK_BYTES = 32

_buffer_ids = itertools.count(1)


@dataclass
class DataBuffer:
    """One unit of data flowing down a logical stream.

    Attributes
    ----------
    size:
        Payload bytes (drives all communication/computation costs).
    data:
        Optional real content (NumPy array in the examples; usually None
        in timing experiments).
    uow_id:
        The unit of work this buffer belongs to.
    meta:
        Application metadata (chunk index, query id, timestamps...).
    """

    size: int
    data: Any = None
    uow_id: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative buffer size {self.size}")


class EOW:
    """End-of-work marker (singleton-ish; identity is irrelevant)."""

    __slots__ = ("uow_id",)

    def __init__(self, uow_id: int) -> None:
        self.uow_id = uow_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EOW uow={self.uow_id}>"
