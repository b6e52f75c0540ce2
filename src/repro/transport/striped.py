"""Striped multi-stream transfers: one logical read over k connections.

GridFTP's headline result is that a *striped* transfer — the payload
fanned across k parallel TCP streams — recovers WAN throughput a
single stream leaves on the table, because each stream's flow-control
allowance (window or credits) caps its in-flight bytes at a fraction
of the bandwidth-delay product.  :class:`StripedStream` is that
mechanism over any registered transport:

* **deterministic round-robin striping** — block at position *j* of
  the request is owned by stripe ``j % k``;
* **in-order reassembly** — each stripe delivers its blocks in request
  order (per-socket FIFO), so the receiver reconstructs the position
  order exactly; the reassembled payload sequence is bit-identical to
  the ``k=1`` path at every width (gated by the wancache suite's
  reassembly claim and ``tests/test_striped_transport.py``);
* **deterministic stripe failover** — when a stripe member dies
  mid-transfer (e.g. a :class:`~repro.faults.HostFault` crash of its
  storage host), the receive times out and the stripe's unreceived
  blocks are re-requested round-robin over the surviving stripes, in
  stripe-index order.  Duplicates that were already in flight from the
  dead stripe are never read (the dead socket is abandoned), so the
  result is still exact.

The server half is :func:`stripe_server`: an accept-loop process that
answers ``read`` requests with one block-sized message per requested
id, charging an optional storage-read cost per block.
"""

from __future__ import annotations

import hashlib
from typing import Generator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConnectionReset,
    ProtocolError,
    ReceiveTimeout,
    RetryExhausted,
    SocketClosedError,
    StripedTransferError,
)

__all__ = [
    "REQUEST_FRAME_BYTES",
    "PER_BLOCK_REQUEST_BYTES",
    "StripedStream",
    "block_token",
    "reassembly_digest",
    "stripe_server",
]

#: Wire size of a read-request frame (header) ...
REQUEST_FRAME_BYTES = 64
#: ... plus this much per requested block id.
PER_BLOCK_REQUEST_BYTES = 8

#: Receive errors that mean "this stripe is gone" and trigger failover.
_STRIPE_DEAD = (ReceiveTimeout, SocketClosedError, ConnectionReset,
                RetryExhausted)


def block_token(block_id) -> str:
    """Deterministic content token for one block.

    The simulation never materializes block bytes; this pure function
    of the id stands in for them, so two transfer paths delivered "the
    same data" iff their token sequences are equal.
    """
    return hashlib.sha256(f"block:{block_id}".encode()).hexdigest()[:16]


def reassembly_digest(payloads: Sequence[Tuple[object, str]]) -> str:
    """Order-sensitive digest over a reassembled payload sequence.

    Equal digests == bit-identical reassembly; the wancache suite's
    reassembly claim compares this across stripe widths and transports.
    """
    joined = ",".join(f"{bid}:{token}" for bid, token in payloads)
    return hashlib.sha256(joined.encode()).hexdigest()[:12]


class StripedStream:
    """k parallel connections carrying one logical block stream."""

    def __init__(self, sockets: Sequence) -> None:
        if not sockets:
            raise ValueError("StripedStream needs at least one socket")
        self.sockets = list(sockets)

    @property
    def width(self) -> int:
        return len(self.sockets)

    @classmethod
    def open(cls, api, client_host, addresses) -> Generator:
        """Connect one stripe per address (generator; run in a process).

        *addresses* is one ``(host, port)`` per stripe; repeating an
        address multiplexes several stripes onto one server.
        """
        sockets = []
        for address in addresses:
            sock = api.socket(client_host)
            yield from sock.connect(tuple(address))
            sockets.append(sock)
        return cls(sockets)

    # -- the read path -----------------------------------------------------------

    def _request(self, stripe: int, block_ids: Sequence, block_bytes: int,
                 ) -> Generator:
        size = REQUEST_FRAME_BYTES + PER_BLOCK_REQUEST_BYTES * len(block_ids)
        yield from self.sockets[stripe].send_message(
            size,
            payload=("read", int(block_bytes), tuple(block_ids)),
            kind="read",
        )

    def read_blocks(self, block_ids: Sequence, block_bytes: int,
                    timeout: Optional[float] = None) -> Generator:
        """Fetch *block_ids* striped; returns ``[(id, token), ...]`` in
        request order (generator; run in a process).

        With a *timeout*, a stripe whose next block does not arrive in
        time is declared dead and its outstanding blocks fail over to
        the surviving stripes.  Pick the timeout above the worst-case
        healthy inter-block gap — it is a liveness bound, not a
        latency target.  Without one, a dead stripe blocks forever
        (matching a single-stream read of a dead server).
        """
        n = len(block_ids)
        if n == 0:
            return []
        width = self.width
        # queues[s]: positions stripe s will deliver, in delivery order.
        queues: List[List[int]] = [[] for _ in range(width)]
        owner: List[int] = [0] * n
        for pos in range(n):
            stripe = pos % width
            queues[stripe].append(pos)
            owner[pos] = stripe
        cursors = [0] * width
        alive = [True] * width
        for stripe in range(width):
            if queues[stripe]:
                yield from self._request(
                    stripe, [block_ids[p] for p in queues[stripe]],
                    block_bytes)
        results: List[Optional[Tuple[object, str]]] = [None] * n
        done = 0
        next_pos = 0
        while done < n:
            while results[next_pos] is not None:
                next_pos += 1
            stripe = owner[next_pos]
            try:
                msg = yield from self.sockets[stripe].recv_message(
                    timeout=timeout)
            except _STRIPE_DEAD as exc:
                yield from self._fail_over(stripe, block_ids, block_bytes,
                                           queues, cursors, owner, alive,
                                           results, exc)
                continue
            pos = queues[stripe][cursors[stripe]]
            cursors[stripe] += 1
            delivered_id = msg.payload[0]
            if delivered_id != block_ids[pos]:
                raise ProtocolError(
                    f"stripe {stripe} delivered block {delivered_id!r} "
                    f"where {block_ids[pos]!r} was expected")
            results[pos] = (delivered_id, msg.payload[1])
            done += 1
        return list(results)

    def _fail_over(self, stripe: int, block_ids, block_bytes, queues,
                   cursors, owner, alive, results, exc) -> Generator:
        """Redistribute a dead stripe's unreceived blocks round-robin
        over the survivors (stripe-index order — deterministic)."""
        alive[stripe] = False
        orphans = [p for p in queues[stripe][cursors[stripe]:]
                   if results[p] is None]
        del queues[stripe][cursors[stripe]:]
        survivors = [s for s in range(self.width) if alive[s]]
        if not survivors:
            raise StripedTransferError(
                f"all {self.width} stripe(s) failed; last error on "
                f"stripe {stripe}: {exc}") from exc
        reassigned: List[List[int]] = [[] for _ in survivors]
        for i, pos in enumerate(orphans):
            target = survivors[i % len(survivors)]
            queues[target].append(pos)
            owner[pos] = target
            reassigned[i % len(survivors)].append(pos)
        for target, positions in zip(survivors, reassigned):
            if positions:
                yield from self._request(
                    target, [block_ids[p] for p in positions], block_bytes)

    def close(self) -> None:
        """Close every stripe (dead ones included; close is idempotent)."""
        for sock in self.sockets:
            try:
                sock.close()
            except SocketClosedError:  # pragma: no cover - already down
                pass


def stripe_server(api, host, port: int,
                  read_ns_per_byte: float = 0.0,
                  cache=None) -> Generator:
    """Accept-loop serving striped ``read`` requests on ``host:port``.

    Run it as a simulation process; it accepts connections forever and
    spawns one server process per stripe.  Each requested block costs
    ``block_bytes * read_ns_per_byte`` of host computation — the
    storage read penalty — before the block-sized reply is sent.

    With a *cache* (a :class:`~repro.cache.BlockCache`, typically one
    storage-side instance shared by every stripe server of the site),
    the server consults it before paying the read penalty: a hit skips
    the storage read entirely, a miss pays it and inserts the block.
    The reply still crosses the wire either way — a storage-side cache
    saves media time, not WAN time.
    """
    h = api.cluster.host(host) if isinstance(host, str) else host
    sim = api.cluster.sim
    listener = api.listen(h.name, port)

    def serve(sock):
        while True:
            try:
                msg = yield from sock.recv_message()
            except (SocketClosedError, ConnectionReset):
                return
            op, block_bytes, ids = msg.payload
            if op != "read":  # pragma: no cover - future ops
                continue
            for block_id in ids:
                cached = cache.get(block_id) if cache is not None else False
                if not cached:
                    if read_ns_per_byte > 0:
                        yield from h.compute_bytes(
                            block_bytes, ns_per_byte=read_ns_per_byte)
                    if cache is not None:
                        cache.put(block_id)
                yield from sock.send_message(
                    block_bytes,
                    payload=(block_id, block_token(block_id)),
                    kind="block",
                )

    while True:
        sock = yield from listener.accept()
        sim.process(serve(sock), name=f"stripe.{h.name}.serve")
