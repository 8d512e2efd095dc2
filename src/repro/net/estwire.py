"""Flat-buffer codec for estimate batches: the worker -> parent wire format.

The forward data plane (PR 4/5) ships packets as struct-of-arrays
:class:`~repro.net.block.PacketBlock` buffers; the return direction still
pickled every per-tick ``[StreamEstimate]`` batch through a
``multiprocessing`` queue.  This module closes the loop: a worker's tick
batch -- four float64 metric columns, small integer code columns over
interned side tables, plus the shard's low watermark -- is encoded into one
contiguous little-endian buffer that rides a shared-memory ring slot, and
decoded on the parent side as zero-copy ``np.frombuffer`` views.

Layout (every section padded to an 8-byte boundary, mirroring the
``PacketBlock`` codec)::

    header | low watermark | meta JSON | window_starts | frame_rates |
    bitrates_kbps | frame_jitters_ms | flow_codes | resolution_codes |
    source_codes

The header is ``_HEADER`` (magic, version, flags, row count, meta length);
the watermark field is always present and ``_FLAG_WATERMARK`` says whether
it is meaningful (a shard that has seen no packets yet has none).  The meta
blob interns the side tables: the unique :class:`~repro.net.flows.FlowKey`
rows (code ``-1`` = single-flow mode's ``None``), the resolution labels
(code ``-1`` = no resolution estimate) and the source labels (``"ml"`` /
``"heuristic"``).

Metric values round-trip **bit-identically**, NaN and +/-inf included: the
columns are raw float64, nothing is formatted or re-parsed.  That is what
lets the sharded monitor's determinism contract (bit-identical estimates on
every transport) extend to the return path.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.net.flows import FlowKey

if TYPE_CHECKING:  # runtime import would be circular (worker -> estwire)
    from repro.core.streaming import StreamEstimate

#: Anything :class:`memoryview` accepts -- the codec never copies out of it.
_Buffer = bytes | bytearray | memoryview

__all__ = ["EstimateBatch"]

_MAGIC = b"EST1"
_VERSION = 1
#: magic, version, flags, n_rows, meta_len (24 bytes, itself 8-aligned).
_HEADER = struct.Struct("<4sHHqq")
_FLAG_WATERMARK = 1 << 0
_WATERMARK = struct.Struct("<d")

#: The per-row metric columns in buffer order (attribute name, wire dtype).
_METRIC_COLUMNS: tuple[tuple[str, np.dtype], ...] = (
    ("window_starts", np.dtype("<f8")),
    ("frame_rates", np.dtype("<f8")),
    ("bitrates_kbps", np.dtype("<f8")),
    ("frame_jitters_ms", np.dtype("<f8")),
)
_FLOW_DTYPE = np.dtype("<i4")
_RESOLUTION_DTYPE = np.dtype("<i2")
_SOURCE_DTYPE = np.dtype("<i1")


#: Distinct decoded flow keys kept interned (the router memo's bound: far
#: above any realistic live-flow count, finite on an endless run).
_FLOW_MEMO_SIZE = 1 << 16


def _pad8(n: int) -> int:
    """Round ``n`` up to the next multiple of 8 (section alignment)."""
    return (n + 7) & ~7


@lru_cache(maxsize=_FLOW_MEMO_SIZE)
def _interned_flow(src: str, src_port: int, dst: str, dst_port: int, protocol: int) -> FlowKey:
    """The one ``FlowKey`` object every decoded batch shares for a 5-tuple.

    A flow reappears in batch after batch; decoding a fresh key (and two
    fresh address strings) each time would make every estimate a collecting
    sink retains pin its own copy.
    """
    return FlowKey(src=src, src_port=src_port, dst=dst, dst_port=dst_port, protocol=protocol)


class EstimateBatch:
    """A columnar batch of :class:`~repro.core.streaming.StreamEstimate` rows.

    Construct with :meth:`from_estimates` (worker side) or :meth:`read_from`
    (parent side); the ``__init__`` signature is the trusted column-level
    constructor shared by both and performs no validation or copying.

    Attributes
    ----------
    window_starts / frame_rates / bitrates_kbps / frame_jitters_ms:
        ``float64`` metric columns, one row per estimate.
    flow_codes / flows:
        Per-row indices into the interned ``FlowKey`` side table
        (``-1`` = single-flow mode, no flow key).
    resolution_codes / resolutions:
        Per-row indices into the resolution label table (``-1`` = ``None``).
    source_codes / sources:
        Per-row indices into the source label table (always valid).
    low_watermark:
        The shard's bound on future emissions at the time the batch was
        built, or ``None`` when the shard had not seen a packet yet.
    """

    __slots__ = (
        "window_starts",
        "frame_rates",
        "bitrates_kbps",
        "frame_jitters_ms",
        "flow_codes",
        "resolution_codes",
        "source_codes",
        "flows",
        "resolutions",
        "sources",
        "low_watermark",
        "_meta_cache",
    )

    def __init__(
        self,
        window_starts: np.ndarray,
        frame_rates: np.ndarray,
        bitrates_kbps: np.ndarray,
        frame_jitters_ms: np.ndarray,
        flow_codes: np.ndarray,
        resolution_codes: np.ndarray,
        source_codes: np.ndarray,
        flows: tuple,
        resolutions: tuple,
        sources: tuple,
        low_watermark: float | None,
    ) -> None:
        self.window_starts = window_starts
        self.frame_rates = frame_rates
        self.bitrates_kbps = bitrates_kbps
        self.frame_jitters_ms = frame_jitters_ms
        self.flow_codes = flow_codes
        self.resolution_codes = resolution_codes
        self.source_codes = source_codes
        self.flows = flows
        self.resolutions = resolutions
        self.sources = sources
        self.low_watermark = low_watermark
        self._meta_cache: bytes | None = None

    def __len__(self) -> int:
        return len(self.window_starts)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_estimates(
        cls, items: Sequence[StreamEstimate], low_watermark: float | None
    ) -> "EstimateBatch":
        """Build a batch from a tick's ``[StreamEstimate]`` list.

        Raises :class:`ValueError` when a row is not flat-encodable (a
        non-string resolution/source, a flow that is not a ``FlowKey``, or a
        non-numeric metric); the worker falls back to the pickling queue for
        those, so output never depends on the transport.
        """
        n = len(items)
        window_starts = np.empty(n, dtype=_METRIC_COLUMNS[0][1])
        frame_rates = np.empty(n, dtype=_METRIC_COLUMNS[1][1])
        bitrates = np.empty(n, dtype=_METRIC_COLUMNS[2][1])
        jitters = np.empty(n, dtype=_METRIC_COLUMNS[3][1])
        flow_codes = np.empty(n, dtype=_FLOW_DTYPE)
        resolution_codes = np.empty(n, dtype=_RESOLUTION_DTYPE)
        source_codes = np.empty(n, dtype=_SOURCE_DTYPE)
        flow_table: dict[FlowKey, int] = {}
        resolution_table: dict[str, int] = {}
        source_table: dict[str, int] = {}
        try:
            for i, item in enumerate(items):
                flow = item.flow
                if flow is None:
                    flow_codes[i] = -1
                else:
                    if not isinstance(flow, FlowKey):
                        raise ValueError(f"flow {flow!r} is not a FlowKey")
                    code = flow_table.get(flow)
                    if code is None:
                        code = flow_table[flow] = len(flow_table)
                    flow_codes[i] = code
                estimate = item.estimate
                window_starts[i] = estimate.window_start
                frame_rates[i] = estimate.frame_rate
                bitrates[i] = estimate.bitrate_kbps
                jitters[i] = estimate.frame_jitter_ms
                resolution = estimate.resolution
                if resolution is None:
                    resolution_codes[i] = -1
                else:
                    if not isinstance(resolution, str):
                        raise ValueError(f"resolution {resolution!r} is not a string")
                    code = resolution_table.get(resolution)
                    if code is None:
                        code = resolution_table[resolution] = len(resolution_table)
                    resolution_codes[i] = code
                source = estimate.source
                if not isinstance(source, str):
                    raise ValueError(f"source {source!r} is not a string")
                code = source_table.get(source)
                if code is None:
                    code = source_table[source] = len(source_table)
                source_codes[i] = code
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"estimate batch is not flat-encodable: {exc}") from exc
        if len(resolution_table) > 0x7FFF or len(source_table) > 0x7F:
            raise ValueError("label side table overflows its code dtype")
        return cls(
            window_starts,
            frame_rates,
            bitrates,
            jitters,
            flow_codes,
            resolution_codes,
            source_codes,
            flows=tuple(flow_table),
            resolutions=tuple(resolution_table),
            sources=tuple(source_table),
            low_watermark=low_watermark,
        )

    # -- flat-buffer codec -----------------------------------------------------

    def _codec_meta(self) -> bytes:
        """The interned side tables as a compact JSON blob (cached)."""
        if self._meta_cache is None:
            self._meta_cache = json.dumps(
                {
                    "flows": [
                        [f.src, f.src_port, f.dst, f.dst_port, f.protocol] for f in self.flows
                    ],
                    "resolutions": list(self.resolutions),
                    "sources": list(self.sources),
                },
                separators=(",", ":"),
            ).encode()
        return self._meta_cache

    def byte_size(self) -> int:
        """Encoded size of this batch in the flat-buffer layout, in bytes."""
        n = len(self)
        size = _HEADER.size + _WATERMARK.size + _pad8(len(self._codec_meta()))
        for _, dtype in _METRIC_COLUMNS:
            size += _pad8(n * dtype.itemsize)
        size += _pad8(n * _FLOW_DTYPE.itemsize)
        size += _pad8(n * _RESOLUTION_DTYPE.itemsize)
        size += _pad8(n * _SOURCE_DTYPE.itemsize)
        return size

    def write_into(self, buf: _Buffer) -> int:
        """Encode this batch into ``buf``; returns the bytes written."""
        n = len(self)
        meta = self._codec_meta()
        total = self.byte_size()
        mv = memoryview(buf)
        if len(mv) < total:
            raise ValueError(f"buffer too small: need {total} bytes, have {len(mv)}")
        flags = 0 if self.low_watermark is None else _FLAG_WATERMARK
        _HEADER.pack_into(mv, 0, _MAGIC, _VERSION, flags, n, len(meta))
        offset = _HEADER.size
        _WATERMARK.pack_into(
            mv, offset, 0.0 if self.low_watermark is None else self.low_watermark
        )
        offset += _WATERMARK.size
        mv[offset : offset + len(meta)] = meta
        offset += _pad8(len(meta))

        def put(values: np.ndarray, dtype: np.dtype) -> None:
            nonlocal offset
            dest = np.frombuffer(mv, dtype=dtype, count=n, offset=offset)
            dest[:] = values
            offset += _pad8(n * dtype.itemsize)

        for name, dtype in _METRIC_COLUMNS:
            put(getattr(self, name), dtype)
        put(self.flow_codes, _FLOW_DTYPE)
        put(self.resolution_codes, _RESOLUTION_DTYPE)
        put(self.source_codes, _SOURCE_DTYPE)
        return offset

    @classmethod
    def read_from(cls, buf: _Buffer) -> "EstimateBatch":
        """Decode a batch encoded by :meth:`write_into`, zero-copy.

        Every column is an ``np.frombuffer`` *view* over ``buf``; the caller
        owns the buffer's lifetime and must drop the batch (and anything
        derived from its columns by reference) before recycling it.  Raises
        :class:`ValueError` for a wrong magic/version or a truncated buffer.
        """
        mv = memoryview(buf)
        if len(mv) < _HEADER.size + _WATERMARK.size:
            raise ValueError(
                f"truncated estimate batch: {len(mv)} bytes is shorter than the header"
            )
        magic, version, flags, n, meta_len = _HEADER.unpack_from(mv, 0)
        if magic != _MAGIC:
            raise ValueError(f"not a flat-encoded estimate batch (magic {magic!r})")
        if version != _VERSION:
            raise ValueError(f"unsupported estimate codec version {version}")
        if n < 0 or meta_len < 0:
            raise ValueError("corrupt estimate batch header (negative section size)")
        offset = _HEADER.size
        (watermark,) = _WATERMARK.unpack_from(mv, offset)
        offset += _WATERMARK.size
        total = offset + _pad8(meta_len)
        for _, dtype in _METRIC_COLUMNS:
            total += _pad8(n * dtype.itemsize)
        total += _pad8(n * _FLOW_DTYPE.itemsize)
        total += _pad8(n * _RESOLUTION_DTYPE.itemsize)
        total += _pad8(n * _SOURCE_DTYPE.itemsize)
        if len(mv) < total:
            raise ValueError(
                f"truncated estimate batch: need {total} bytes, have {len(mv)}"
            )
        meta = json.loads(bytes(mv[offset : offset + meta_len]))
        offset += _pad8(meta_len)

        def get(dtype: np.dtype) -> np.ndarray:
            nonlocal offset
            column = np.frombuffer(mv, dtype=dtype, count=n, offset=offset)
            offset += _pad8(n * dtype.itemsize)
            return column

        columns = [get(dtype) for _, dtype in _METRIC_COLUMNS]
        flow_codes = get(_FLOW_DTYPE)
        resolution_codes = get(_RESOLUTION_DTYPE)
        source_codes = get(_SOURCE_DTYPE)
        return cls(
            *columns,
            flow_codes,
            resolution_codes,
            source_codes,
            flows=tuple(
                _interned_flow(src, src_port, dst, dst_port, protocol)
                for src, src_port, dst, dst_port, protocol in meta["flows"]
            ),
            resolutions=tuple(meta["resolutions"]),
            sources=tuple(meta["sources"]),
            low_watermark=watermark if flags & _FLAG_WATERMARK else None,
        )

    # -- materialization -------------------------------------------------------

    def to_estimates(self) -> list:
        """Materialize the batch back into ``[StreamEstimate]``, bit-identical.

        Uses the dataclasses' ``_from_wire`` fast constructors (the same
        shortcut unpickling takes), so the zero-pickle return path does not
        give back its savings re-validating frozen dataclass fields.
        """
        from repro.core.pipeline import PipelineEstimate
        from repro.core.streaming import StreamEstimate

        flows = self.flows
        resolutions = self.resolutions
        sources = self.sources
        items = []
        append = items.append
        for ws, fr, br, jit, fc, rc, sc in zip(
            self.window_starts.tolist(),
            self.frame_rates.tolist(),
            self.bitrates_kbps.tolist(),
            self.frame_jitters_ms.tolist(),
            self.flow_codes.tolist(),
            self.resolution_codes.tolist(),
            self.source_codes.tolist(),
        ):
            estimate = PipelineEstimate._from_wire(
                ws, fr, br, jit, resolutions[rc] if rc >= 0 else None, sources[sc]
            )
            append(StreamEstimate._from_wire(flows[fc] if fc >= 0 else None, estimate))
        return items
