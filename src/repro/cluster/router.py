"""Deterministic flow -> shard partitioning for the sharded monitor.

The per-flow streams of the engine are fully independent (PR 1 made them
so on purpose), which makes horizontal scale-out a routing problem: send
every packet of a flow to the same worker and N workers behave exactly like
one.  :class:`FlowShardRouter` is that routing function.

Two properties matter and both are load-bearing:

* **Canonical keys.**  Packets are keyed by the *bidirectional* canonical
  form of their 5-tuple (:meth:`~repro.net.flows.FlowKey.bidirectional`), so
  the two unidirectional halves of one call land on the same shard.  The
  engine still demultiplexes them into separate unidirectional streams --
  co-locating them just keeps a future bidirectional feature (RTT, ack
  correlation) shard-local.
* **Stable hashing.**  The shard index comes from CRC-32 over a canonical
  byte encoding of the key, *not* Python's ``hash()``: the builtin string
  hash is salted per process (PYTHONHASHSEED), and worker processes, restarts
  and replicas must all agree where a flow lives.

Assignments are memoized per unidirectional key (an LRU keeps a perpetual
monitor's cache bounded), so steady-state routing is a dict hit; on the
columnar path (:meth:`FlowShardRouter.partition_block`) the hash runs once
per *unique flow* of a block, never once per packet.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.net.block import PacketBlock
from repro.net.flows import FlowKey, five_tuple
from repro.net.packet import Packet

__all__ = ["FlowShardRouter"]

#: Distinct unidirectional keys whose shard assignment is kept memoized.
#: Far above any realistic live-flow count; bounds memory on endless runs.
SHARD_CACHE_SIZE = 1 << 16


class FlowShardRouter:
    """Hash-partition packets onto ``n_shards`` by canonical 5-tuple.

    Stateless-in-effect and deterministic: the same flow maps to the same
    shard in every process, on every run, for a given shard count.  The
    only state is a memo of past answers, which cannot change them.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        self.n_shards = n_shards
        #: Shard index of a (unidirectional or canonical) flow key, memoized.
        self.shard_of_key = lru_cache(maxsize=SHARD_CACHE_SIZE)(self._shard_of_key)

    def _shard_of_key(self, key: FlowKey) -> int:
        """Shard index of a (unidirectional or canonical) flow key."""
        canonical = key.bidirectional()[0]
        encoded = (
            f"{canonical.src}|{canonical.src_port}|"
            f"{canonical.dst}|{canonical.dst_port}|{canonical.protocol}"
        ).encode()
        return zlib.crc32(encoded) % self.n_shards

    def shard_of(self, packet: Packet) -> int:
        """Shard index ``packet`` belongs to."""
        return self.shard_of_key(five_tuple(packet))

    def partition_block(self, block: PacketBlock) -> list[tuple[int, PacketBlock]]:
        """Split a block into per-shard sub-blocks, preserving arrival order.

        The shard is computed once per unique flow of the block (memoized
        across blocks) and broadcast over the pre-computed ``flow_codes``
        column; each returned sub-block keeps its rows in the original
        order.  Sub-blocks are :meth:`~repro.net.block.PacketBlock.headers_only`
        -- they are headed for a process boundary, and the monitor reads the
        IP/UDP header columns alone, so no packet cache, RTP or ground-truth
        column ever crosses it.  Shards with no packets in the block are
        omitted.
        """
        n = len(block)
        if n == 0:
            return []
        block = block.headers_only()
        # Hash only the flows *present* in this block: a chunk sliced from a
        # whole-capture block shares the capture-wide flow table, and
        # iterating all of it per chunk would be O(total flows ever seen).
        present = np.unique(block.flow_codes)
        present_shards = np.fromiter(
            (self.shard_of_key(block.flows[code]) for code in present.tolist()),
            dtype=np.int64,
            count=len(present),
        )
        if self.n_shards == 1 or len(np.unique(present_shards)) == 1:
            return [(int(present_shards[0]), block.compact())]
        per_packet = present_shards[np.searchsorted(present, block.flow_codes)]
        return [
            (int(shard), block.take(np.flatnonzero(per_packet == shard)).compact())
            for shard in np.unique(per_packet).tolist()
        ]
