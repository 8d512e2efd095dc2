"""Shared-memory block rings: the zero-copy transport of the data plane.

The ``"block"`` transport moves a :class:`~repro.net.block.PacketBlock` by
pickling its arrays into a pipe and unpickling them on the other side --
two copies plus per-message interpreter work.  Blocks are already
contiguous struct-of-arrays batches, so the alternative is the standard
one: put the bytes in a
:class:`multiprocessing.shared_memory.SharedMemory` segment both sides map,
and move only *slot tokens* through the queue.  What the ring buys the
sharded monitor is less the copies than the *slot*: sub-blocks the parent
routes while a worker is behind share one, and the worker runs a slot as
one inference tick, so a saturated worker's tick grows to as many rows as a
slot holds (``bench/``'s ``sharded64-shm``: ~25 k packets/s with one tick
per 256-row sub-block, ~120-150 k with one per slot).

:class:`BlockRing` is a fixed-slot single-producer/single-consumer ring of
**segmented slots**:

* one forward ring per shard (parent -> worker, flat-encoded
  ``PacketBlock`` payloads) and -- on the PR 6 return path -- one reverse
  ring per shard (worker -> parent,
  :class:`~repro.net.estwire.EstimateBatch` payloads).  Both directions are
  created by the parent (the segment owner) and attached by the worker;
* ``slot_count`` slots of ``slot_bytes`` each.  A slot holds one or more
  **segments** behind a length-prefixed header -- the producer packs a
  whole batch of flat-encoded payloads into a single slot
  (:meth:`try_push_segments`), so small payloads stop paying two semaphore
  operations each.  Sections stay 8-aligned for zero-copy
  ``np.frombuffer`` decoding on the consumer side;
* per-slot **ready/free semaphores** provide back-pressure: the producer
  blocks (with a timeout, so it can keep draining its peer) when the ring
  is full, the consumer when it is empty.  Both sides walk the slots in
  order, so FIFO needs no shared indices;
* the consumer must finish with a popped slot's segments **before**
  calling :meth:`release` -- the slot is recycled immediately after.  The
  engine's ``push_block`` (and the parent's estimate materialization) copy
  everything they keep, and concatenating a slot's segments into one tick
  copies them out, so "consume then release" is safe without an extra
  memcpy;
* a 16-byte counter header (produced/consumed, each side the sole writer
  of its own u64) makes slot occupancy observable for the transport stats
  surfaced in per-shard stats -- reads may race, which is fine for
  telemetry;
* lifecycle is explicit: workers :meth:`close` their mapping, the owner
  :meth:`unlink`\\ s the segment.  The sharded monitor unlinks in a
  ``finally`` so normal exit, aborts, and worker death all reclaim the
  segment (asserted by ``tests/cluster/test_shm_transport.py``).

Workers attach **untracked**: Python's ``resource_tracker`` would otherwise
count the segment once per process and complain (or double-unlink) when the
parent reclaims it.  Python 3.13+ exposes ``track=False``; on older
versions the registration is reverted by hand.
"""

from __future__ import annotations

import numpy as np

from repro.net.block import PacketBlock

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = ["BlockRing", "RingHandle", "shm_available", "DEFAULT_SLOT_BYTES", "MIN_SLOT_BYTES"]

#: Default slot payload capacity.  A slot is the most a worker runs as one
#: inference tick -- every sub-block routed while its ring was full -- so
#: this is the tick ceiling, not a per-chunk size: ~17 k rows, or 66 of the
#: monitor's default 256-row sub-blocks at 64 flows (one such sub-block
#: encodes to ~15 KiB).  The router splits any single block that is larger.
DEFAULT_SLOT_BYTES = 1 << 20

#: Smallest slot payload capacity a ring accepts (and the monitor's
#: ``shm_slot_bytes`` floor).  A one-row header-only block encodes to ~200
#: bytes with ordinary dotted-quad addresses; a row whose side tables alone
#: outsize the slot (a multi-kilobyte address string) is the one block the
#: forward link sends through the queue instead.
MIN_SLOT_BYTES = 1024

#: Ring-level counter header: u64 slots produced, u64 slots consumed.
_RING_COUNTER_BYTES = 16

#: Per-slot segment-count prefix (written as a little-endian int64).
_SLOT_COUNT_BYTES = 8

#: Per-segment byte-length prefix (little-endian int64, keeps payloads
#: 8-aligned together with the per-segment padding).
_SEGMENT_HEADER_BYTES = 8


def _pad8(n: int) -> int:
    return (n + 7) & ~7


def shm_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` works on this platform.

    Checks by actually creating (and immediately reclaiming) a minimal
    segment: some sandboxes ship the module but deny ``/dev/shm``.
    """
    if _shared_memory is None:
        return False
    try:
        segment = _shared_memory.SharedMemory(create=True, size=8)
    except (OSError, PermissionError):
        return False
    segment.close()
    segment.unlink()
    return True


def _attach_untracked(name: str):
    """Attach to an existing segment without resource-tracker registration."""
    try:
        return _shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:
        # Pre-3.13: attaching registers the segment with this process's
        # resource tracker, which would then fight the owner over cleanup.
        # Suppress the registration for the duration of the attach.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(name_, rtype):  # pragma: no branch
            if rtype != "shared_memory":
                original(name_, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class RingHandle:
    """The worker-side descriptor of a ring: everything :meth:`attach` needs.

    Picklable only the way ``multiprocessing`` primitives are -- as part of
    the ``Process`` arguments during spawn -- which is exactly how it
    travels.
    """

    def __init__(self, name: str, slot_count: int, slot_bytes: int, ready, free) -> None:
        self.name = name
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self.ready = ready
        self.free = free

    def attach(self) -> "BlockRing":
        """Map the segment in this (worker) process."""
        segment = _attach_untracked(self.name)
        return BlockRing(segment, self.slot_count, self.slot_bytes, self.ready, self.free, owner=False)


class BlockRing:
    """A fixed-slot SPSC ring of segmented flat-buffer slots over shared memory.

    Construct with :meth:`create` (owner side) or :meth:`RingHandle.attach`
    (the worker side of either direction); the ``__init__`` signature is
    internal plumbing shared by both.
    """

    def __init__(self, segment, slot_count: int, slot_bytes: int, ready, free, owner: bool) -> None:
        self._segment = segment
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self._ready = ready
        self._free = free
        self._owner = owner
        self._stride = _SLOT_COUNT_BYTES + slot_bytes
        # Occupancy counters live at the head of the segment: the producer
        # owns [0] (slots produced), the consumer owns [1] (slots consumed).
        # Telemetry only -- a torn read costs nothing but a stats blip.
        # Not wire decoding: these two words never leave the host, so native
        # byte order is correct and no codec entry point applies.
        self._counters = np.frombuffer(segment.buf, dtype=np.uint64, count=2)  # detlint: disable=CODEC002 -- in-host occupancy counters, not wire payload
        # Producer and consumer each track their own cursor; SPSC in slot
        # order means they never need to share it.
        self._cursor = 0
        self._popped: list[memoryview] = []
        self._closed = False
        # Producer-side transport telemetry (see transport_stats()).
        self._slots_written = 0
        self._segments_written = 0
        self._max_segments_per_slot = 0
        self._occupancy_hwm = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, ctx, slot_count: int, slot_bytes: int = DEFAULT_SLOT_BYTES) -> "BlockRing":
        """Allocate a ring: ``slot_count`` slots of ``slot_bytes`` payload.

        ``ctx`` is the multiprocessing context the worker will be spawned
        from (its semaphores must match the start method).  The creating
        process is the owner: it must eventually call :meth:`unlink`.
        """
        if _shared_memory is None:  # pragma: no cover - platform guard
            raise RuntimeError("multiprocessing.shared_memory is unavailable on this platform")
        if slot_count < 1:
            raise ValueError(f"slot_count must be >= 1, got {slot_count!r}")
        if slot_bytes < MIN_SLOT_BYTES:
            raise ValueError(f"slot_bytes must be >= {MIN_SLOT_BYTES}, got {slot_bytes!r}")
        slot_bytes = (slot_bytes + 7) & ~7
        segment = _shared_memory.SharedMemory(
            create=True,
            size=_RING_COUNTER_BYTES + slot_count * (_SLOT_COUNT_BYTES + slot_bytes),
        )
        segment.buf[:_RING_COUNTER_BYTES] = bytes(_RING_COUNTER_BYTES)
        ready = tuple(ctx.Semaphore(0) for _ in range(slot_count))
        free = tuple(ctx.Semaphore(1) for _ in range(slot_count))
        return cls(segment, slot_count, slot_bytes, ready, free, owner=True)

    def handle(self) -> RingHandle:
        """The descriptor to pass into the worker process's arguments."""
        return RingHandle(self._segment.name, self.slot_count, self.slot_bytes, self._ready, self._free)

    @property
    def name(self) -> str:
        """The shared-memory segment name (for leak assertions in tests)."""
        return self._segment.name

    @property
    def max_segment_bytes(self) -> int:
        """Largest single payload a slot can carry (capacity minus prefix)."""
        return self.slot_bytes - _SEGMENT_HEADER_BYTES

    @staticmethod
    def segment_cost(size: int) -> int:
        """Slot capacity one ``size``-byte payload consumes (prefix + padding)."""
        return _SEGMENT_HEADER_BYTES + _pad8(size)

    # -- producer side ---------------------------------------------------------

    def try_push_segments(self, payloads, timeout: float | None = None) -> bool:
        """Pack ``payloads`` into the next slot; False if no slot freed in time.

        ``payloads`` is a non-empty sequence of ``(size, write_into)`` pairs
        -- the flat-buffer codec surface shared by ``PacketBlock`` and
        ``EstimateBatch``.  All of them land in **one** slot behind
        length-prefixed segment headers (two semaphore ops total), in order.
        Raises :class:`ValueError` -- without consuming a slot -- when the
        batch cannot fit (``sum(segment_cost(size)) > slot_bytes``; split or
        flush first).
        """
        if not payloads:
            raise ValueError("try_push_segments needs at least one payload")
        needed = sum(self.segment_cost(size) for size, _ in payloads)
        if needed > self.slot_bytes:
            raise ValueError(
                f"segment batch of {needed} bytes exceeds the ring's "
                f"{self.slot_bytes}-byte slots"
            )
        if not self._free[self._cursor].acquire(True, timeout):
            return False
        offset = _RING_COUNTER_BYTES + self._cursor * self._stride
        mv = memoryview(self._segment.buf)
        try:
            mv[offset : offset + _SLOT_COUNT_BYTES] = len(payloads).to_bytes(
                _SLOT_COUNT_BYTES, "little"
            )
            pos = offset + _SLOT_COUNT_BYTES
            for size, write_into in payloads:
                mv[pos : pos + _SEGMENT_HEADER_BYTES] = size.to_bytes(
                    _SEGMENT_HEADER_BYTES, "little"
                )
                segment = mv[pos + _SEGMENT_HEADER_BYTES : pos + _SEGMENT_HEADER_BYTES + size]
                try:
                    write_into(segment)
                finally:
                    segment.release()
                pos += self.segment_cost(size)
        finally:
            mv.release()
        self._ready[self._cursor].release()
        self._cursor = (self._cursor + 1) % self.slot_count
        self._slots_written += 1
        self._segments_written += len(payloads)
        if len(payloads) > self._max_segments_per_slot:
            self._max_segments_per_slot = len(payloads)
        counters = self._counters
        counters[0] += 1
        occupancy = int(counters[0]) - int(counters[1])
        if occupancy > self._occupancy_hwm:
            self._occupancy_hwm = occupancy
        return True

    def try_push(self, block: PacketBlock, timeout: float | None = None) -> bool:
        """Encode one ``block`` into its own slot; False if none freed in time.

        The single-segment convenience used by unbatched callers and tests.
        Raises :class:`ValueError` -- without consuming a slot -- when the
        block cannot fit (``byte_size() > max_segment_bytes``, split it
        first) or still carries annotation columns (strip them with
        ``headers_only()``).
        """
        size = block.byte_size()
        if size > self.max_segment_bytes:
            raise ValueError(
                f"block of {size} bytes exceeds the ring's {self.slot_bytes}-byte slots"
            )
        return self.try_push_segments(((size, block.write_into),), timeout)

    def transport_stats(self) -> dict:
        """Producer-side telemetry of this ring (occupancy, batching, reuse)."""
        return {
            "slots_written": self._slots_written,
            "slot_reuses": max(0, self._slots_written - self.slot_count),
            "segments_written": self._segments_written,
            "max_segments_per_slot": self._max_segments_per_slot,
            "occupancy_hwm": self._occupancy_hwm,
        }

    # -- consumer side ---------------------------------------------------------

    def pop_segments(self, timeout: float | None = None) -> list[memoryview] | None:
        """Views of the oldest pending slot's segments; ``None`` on timeout.

        The returned memoryviews alias the slot: decode them (zero-copy),
        finish with everything derived from them, then call :meth:`release`.
        At most one slot may be outstanding at a time.
        """
        if self._popped:
            raise RuntimeError("previous slot not released; call release() first")
        if not self._ready[self._cursor].acquire(True, timeout):
            return None
        offset = _RING_COUNTER_BYTES + self._cursor * self._stride
        buf = self._segment.buf
        count = int.from_bytes(bytes(buf[offset : offset + _SLOT_COUNT_BYTES]), "little")
        pos = offset + _SLOT_COUNT_BYTES
        views: list[memoryview] = []
        for _ in range(count):
            size = int.from_bytes(bytes(buf[pos : pos + _SEGMENT_HEADER_BYTES]), "little")
            views.append(
                memoryview(buf)[pos + _SEGMENT_HEADER_BYTES : pos + _SEGMENT_HEADER_BYTES + size]
            )
            pos += self.segment_cost(size)
        self._popped = views
        return views

    def pop(self, timeout: float | None = None) -> PacketBlock | None:
        """Decode a single-block slot (the :meth:`try_push` counterpart).

        The returned block's columns are views into the slot: consume it
        fully (e.g. ``engine.push_block``) and then call :meth:`release`.
        """
        segments = self.pop_segments(timeout)
        if segments is None:
            return None
        if len(segments) != 1:  # pragma: no cover - caller protocol guard
            raise RuntimeError(
                f"slot holds {len(segments)} segments; use pop_segments() for batched slots"
            )
        return PacketBlock.read_from(segments[0])

    def release(self) -> None:
        """Recycle the slot of the last :meth:`pop_segments`/:meth:`pop`.

        Everything decoded from the slot (and anything still viewing its
        buffer) must be dropped before calling this; the producer will
        overwrite the slot immediately.
        """
        if not self._popped:
            raise RuntimeError("no popped block to release")
        for view in self._popped:
            view.release()
        self._popped = []
        self._counters[1] += 1
        self._free[self._cursor].release()
        self._cursor = (self._cursor + 1) % self.slot_count

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment in this process (both sides; idempotent)."""
        if self._closed:
            return
        self._closed = True
        for view in self._popped:
            try:
                view.release()
            except BufferError:
                # A decoded payload still views the slot (e.g. the worker's
                # error path closes with its last chunk in scope); the
                # mapping goes when the process does.
                pass
        self._popped = []
        # Drop the counter view before closing or it would pin the mapping.
        self._counters = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a stray view outlived its block
            # The mapping stays until the process exits; the segment itself
            # is still reclaimed by the owner's unlink().
            pass

    def unlink(self) -> None:
        """Reclaim the OS segment (owner only; idempotent, tolerates races)."""
        if not self._owner:
            return
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
