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
monitor's cache bounded), so steady-state routing is a dict hit.  On the
columnar path (:meth:`FlowShardRouter.partition_block`) the shards are
cached as an array over the source block's flow table, so routing a block
is one gather over its ``flow_codes`` column; the hash runs once per flow
of a table, never once per packet or per block.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.net.block import PacketBlock
from repro.net.flows import FlowKey, five_tuple
from repro.net.packet import Packet

__all__ = ["FlowShardRouter", "SHARD_CACHE_SIZE"]

#: Distinct unidirectional keys whose shard assignment is kept memoized, and
#: the flows a forward link's table holds before it restarts.  Far above any
#: realistic live-flow count; bounds memory on endless runs.
SHARD_CACHE_SIZE = 1 << 16


class FlowShardRouter:
    """Hash-partition packets onto ``n_shards`` by canonical 5-tuple.

    Stateless-in-effect and deterministic: the same flow maps to the same
    shard in every process, on every run, for a given shard count.  The
    only state is a memo of past answers, which cannot change them: the
    per-key LRU, and the shards of the last source flow table routed, kept
    as an array indexed by flow code so a block routes with one gather.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        self.n_shards = n_shards
        #: Shard index of a (unidirectional or canonical) flow key, memoized.
        self.shard_of_key = lru_cache(maxsize=SHARD_CACHE_SIZE)(self._shard_of_key)
        #: The last source flow table routed, and the shard of each of its
        #: codes (-1: not looked up yet).
        self._table: tuple[FlowKey, ...] | None = None
        self._table_shards = np.empty(0, dtype=np.int64)

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

        Each row's shard is one gather of the block's ``flow_codes`` through
        the shards of its flow table (cached across blocks that share one;
        only a code not met before is hashed); each returned sub-block keeps
        its rows in the original order and shares the block's side tables --
        what crosses a process boundary is decided by the forward link's
        codec, which ships a flow's key once per link.  Sub-blocks are
        :meth:`~repro.net.block.PacketBlock.headers_only` -- the monitor reads
        the IP/UDP header columns alone, so no packet cache, RTP or
        ground-truth column ever crosses it.  Shards with no packets in the
        block are omitted.
        """
        n = len(block)
        if n == 0:
            return []
        block = block.headers_only()
        if self.n_shards == 1:
            return [(0, block)]
        per_row = self._row_shards(block)
        first = int(per_row[0])
        if bool((per_row == first).all()):
            return [(first, block)]
        return [
            (shard, block.take(np.flatnonzero(per_row == shard)))
            for shard in np.unique(per_row).tolist()
        ]

    def _row_shards(self, block: PacketBlock) -> np.ndarray:
        """The shard of every row of ``block``: a gather over its flow codes."""
        if block.flows is not self._table:
            self._table = block.flows
            self._table_shards = np.full(len(block.flows), -1, dtype=np.int64)
        shards = self._table_shards
        per_row = shards[block.flow_codes]
        if per_row.min() < 0:
            flows = block.flows
            missed = np.unique(block.flow_codes[per_row < 0]).tolist()
            shards[missed] = [self.shard_of_key(flows[code]) for code in missed]
            per_row = shards[block.flow_codes]
        return per_row
