"""Property-style fuzz tests for the estimate flat-buffer codec.

The return-path analogue of ``TestFlatBufferCodec``: random
:class:`~repro.net.estwire.EstimateBatch` contents -- NaN / +/-inf / random
bit-pattern metric values, empty ticks, single- and many-flow side tables --
must round-trip **bit-identically** (compared as raw float64 bits, since
``NaN != NaN``), decode as zero-copy views, split across undersized ring
slots without loss, and reject truncated or corrupt buffers loudly.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import multiprocessing
import pickle
import random
import struct

import pytest

from repro.cluster.fanin import flow_sort_key
from repro.cluster.shm import BlockRing, shm_available
from repro.core.pipeline import PipelineEstimate
from repro.core.streaming import StreamEstimate
from repro.net import estwire
from repro.net.estwire import EstimateBatch
from repro.net.flows import FlowKey


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: Edge-case metric values: specials, signed zeros, the subnormal floor and
#: the finite ceiling of binary64.
_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308)


def random_metric(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(_SPECIALS)
    if roll < 0.5:
        # A uniformly random bit pattern: covers payload-carrying NaNs and
        # denormals no float-space distribution would ever produce.
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return rng.uniform(-1e6, 1e6)


def flow_pool(n: int) -> list[FlowKey]:
    return [
        FlowKey(
            src=f"192.0.2.{i % 250}",
            src_port=3478,
            dst="10.0.0.1",
            dst_port=50000 + i,
            protocol=17,
        )
        for i in range(n)
    ]


def random_items(rng: random.Random, n: int, pool: list[FlowKey]) -> list[StreamEstimate]:
    items = []
    for _ in range(n):
        estimate = PipelineEstimate(
            window_start=random_metric(rng),
            frame_rate=random_metric(rng),
            bitrate_kbps=random_metric(rng),
            frame_jitter_ms=random_metric(rng),
            resolution=rng.choice((None, "360p", "720p", "1080p")),
            source=rng.choice(("ml", "heuristic")),
        )
        flow = None if rng.random() < 0.1 else rng.choice(pool)
        items.append(StreamEstimate(flow=flow, estimate=estimate))
    return items


def encoded(batch: EstimateBatch) -> bytearray:
    buf = bytearray(batch.byte_size())
    written = batch.write_into(memoryview(buf))
    assert written == len(buf)
    return buf


def assert_rows_bit_identical(decoded_items, items) -> None:
    assert len(decoded_items) == len(items)
    for got, want in zip(decoded_items, items):
        assert got.flow == want.flow
        g, w = got.estimate, want.estimate
        for name in ("window_start", "frame_rate", "bitrate_kbps", "frame_jitter_ms"):
            assert bits(getattr(g, name)) == bits(getattr(w, name)), name
        assert g.resolution == w.resolution
        assert g.source == w.source


class TestEstimateCodecFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_bit_identical(self, seed):
        rng = random.Random(seed)
        pool = flow_pool(rng.randint(1, 40))
        items = random_items(rng, rng.randint(0, 200), pool)
        watermark = rng.choice((None, rng.uniform(-1e3, 1e9), -math.inf))
        batch = EstimateBatch.from_estimates(items, watermark)
        assert len(batch) == len(items)
        decoded = EstimateBatch.read_from(memoryview(encoded(batch)))
        if watermark is None:
            assert decoded.low_watermark is None
        else:
            assert bits(decoded.low_watermark) == bits(watermark)
        assert_rows_bit_identical(decoded.to_estimates(), items)

    def test_empty_batch_round_trips(self):
        for watermark in (None, 7.5):
            decoded = EstimateBatch.read_from(
                memoryview(encoded(EstimateBatch.from_estimates([], watermark)))
            )
            assert len(decoded) == 0
            assert decoded.to_estimates() == []
            assert decoded.low_watermark == watermark

    def test_side_table_extremes(self):
        rng = random.Random(42)
        # One interned flow shared by every row...
        shared = random_items(rng, 50, flow_pool(1))
        batch = EstimateBatch.from_estimates(shared, 1.0)
        assert len(batch.flows) <= 1
        decoded = EstimateBatch.read_from(memoryview(encoded(batch)))
        assert_rows_bit_identical(decoded.to_estimates(), shared)
        # ...and a unique flow per row.
        pool = flow_pool(50)
        unique = [
            StreamEstimate(flow=pool[i], estimate=item.estimate)
            for i, item in enumerate(shared)
        ]
        batch = EstimateBatch.from_estimates(unique, 1.0)
        assert len(batch.flows) == 50
        decoded = EstimateBatch.read_from(memoryview(encoded(batch)))
        assert_rows_bit_identical(decoded.to_estimates(), unique)

    def test_decode_is_zero_copy_views(self):
        items = random_items(random.Random(3), 9, flow_pool(2))
        buf = encoded(EstimateBatch.from_estimates(items, 1.0))
        first = EstimateBatch.read_from(memoryview(buf))
        second = EstimateBatch.read_from(memoryview(buf))
        assert first.window_starts.base is not None
        # Two decodes of one buffer alias the same memory: proof of zero-copy.
        first.window_starts[0] = 42.0
        assert second.window_starts[0] == 42.0

    @pytest.mark.parametrize("seed", range(4))
    def test_truncated_buffers_raise(self, seed):
        rng = random.Random(seed)
        items = random_items(rng, rng.randint(1, 40), flow_pool(4))
        buf = encoded(EstimateBatch.from_estimates(items, 4.0))
        cuts = {0, 8, 23, len(buf) // 2, len(buf) - 1, rng.randrange(len(buf))}
        for cut in cuts:
            with pytest.raises(ValueError, match="truncated"):
                EstimateBatch.read_from(memoryview(buf[:cut]))

    def test_corrupt_headers_raise(self):
        buf = encoded(EstimateBatch.from_estimates([], None))
        bad_magic = bytearray(buf)
        bad_magic[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            EstimateBatch.read_from(memoryview(bad_magic))
        bad_version = bytearray(buf)
        struct.pack_into("<H", bad_version, 4, 9)
        with pytest.raises(ValueError, match="version"):
            EstimateBatch.read_from(memoryview(bad_version))
        bad_rows = bytearray(buf)
        struct.pack_into("<q", bad_rows, 8, -1)
        with pytest.raises(ValueError, match="negative"):
            EstimateBatch.read_from(memoryview(bad_rows))

    def test_write_into_checks_capacity(self):
        batch = EstimateBatch.from_estimates(random_items(random.Random(1), 5, flow_pool(2)), 1.0)
        with pytest.raises(ValueError, match="too small"):
            batch.write_into(memoryview(bytearray(batch.byte_size() - 8)))

    def test_non_encodable_rows_raise_value_error(self):
        def estimate(**overrides):
            fields = dict(
                window_start=0.0,
                frame_rate=1.0,
                bitrate_kbps=2.0,
                frame_jitter_ms=3.0,
                resolution="720p",
                source="ml",
            )
            fields.update(overrides)
            return PipelineEstimate(**fields)

        with pytest.raises(ValueError, match="FlowKey"):
            EstimateBatch.from_estimates(
                [StreamEstimate(flow="1.2.3.4:5", estimate=estimate())], None
            )
        with pytest.raises(ValueError, match="resolution"):
            EstimateBatch.from_estimates(
                [StreamEstimate(flow=None, estimate=estimate(resolution=720))], None
            )
        with pytest.raises(ValueError, match="source"):
            EstimateBatch.from_estimates(
                [StreamEstimate(flow=None, estimate=estimate(source=b"ml"))], None
            )
        with pytest.raises(ValueError):
            EstimateBatch.from_estimates(
                [StreamEstimate(flow=None, estimate=estimate(frame_rate="fast"))], None
            )


class TestEstimateShape:
    """What one retained estimate costs: slots, no instance dict, shared keys.

    Every collecting sink keeps one ``StreamEstimate`` + ``PipelineEstimate``
    per (flow, window).  Built by ``__init__`` or rebuilt from the return wire
    they must be the same slotted objects, and a decoded flow key must be one
    object per 5-tuple, not one per batch.
    """

    FIELDS = dict(
        window_start=3.0,
        frame_rate=24.5,
        bitrate_kbps=812.25,
        frame_jitter_ms=4.125,
        resolution="720p",
        source="ml",
    )

    def pairs(self):
        """``(built by __init__, built by _from_wire)`` for both types."""
        flow = flow_pool(1)[0]
        built = PipelineEstimate(**self.FIELDS)
        wired = PipelineEstimate._from_wire(*self.FIELDS.values())
        return [
            (built, wired),
            (StreamEstimate(flow=flow, estimate=built), StreamEstimate._from_wire(flow, built)),
        ]

    def test_no_instance_dict_however_built(self):
        for pair in self.pairs():
            for item in pair:
                assert not hasattr(item, "__dict__")
                assert type(item).__slots__ == tuple(
                    field.name for field in dataclasses.fields(item)
                )
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(item, type(item).__slots__[0], None)
                with pytest.raises(AttributeError):
                    object.__setattr__(item, "extra", 1)

    def test_value_semantics_are_unchanged(self):
        for built, wired in self.pairs():
            assert wired == built and hash(wired) == hash(built)
            assert repr(wired) == repr(built)
            assert dataclasses.asdict(wired) == dataclasses.asdict(built)
            for item in (built, wired):
                # The queue carrier pickles them; sinks and tests copy them.
                for clone in (pickle.loads(pickle.dumps(item)), copy.deepcopy(item), copy.copy(item)):
                    assert clone == item and clone is not item
                    assert not hasattr(clone, "__dict__")
        (built, wired), (item, _) = self.pairs()
        assert dataclasses.asdict(wired) == self.FIELDS
        assert dataclasses.replace(wired, source="heuristic") == PipelineEstimate(
            **dict(self.FIELDS, source="heuristic")
        )
        assert dataclasses.replace(item, flow=None) == StreamEstimate(flow=None, estimate=built)
        assert dataclasses.asdict(item) == {
            "flow": dataclasses.asdict(item.flow),
            "estimate": self.FIELDS,
        }

    def test_decoded_batches_share_one_key_per_flow(self):
        rng = random.Random(5)
        pool = flow_pool(6)
        first = EstimateBatch.read_from(
            memoryview(encoded(EstimateBatch.from_estimates(random_items(rng, 60, pool), 1.0)))
        )
        second = EstimateBatch.read_from(
            memoryview(encoded(EstimateBatch.from_estimates(random_items(rng, 60, pool), 2.0)))
        )
        by_value = {flow: flow for flow in first.flows}
        assert set(second.flows) == set(by_value) == set(pool)
        for flow in second.flows:
            assert flow is by_value[flow]
        items = first.to_estimates() + second.to_estimates()
        assert len({id(item.flow) for item in items if item.flow is not None}) == len(pool)
        # The interned keys are ordinary keys: equal to (not the same object
        # as) the ones that were encoded, and sorted by the fan-in alike.
        assert all(by_value[flow] is not flow for flow in pool)
        assert sorted(by_value.values(), key=flow_sort_key) == sorted(pool, key=flow_sort_key)

    def test_flow_memo_is_bounded(self):
        info = estwire._interned_flow.cache_info()
        assert info.maxsize == estwire._FLOW_MEMO_SIZE == 1 << 16


class _FakeChannel:
    """Records the worker channel traffic the return batcher generates."""

    def __init__(self) -> None:
        self.messages: list = []
        self.done_sent = False

    def progress(self, items, low_watermark, load=None) -> None:
        self.messages.append(("progress", items, low_watermark, load))

    def estimates_ready(self, load=None) -> None:
        self.messages.append(("est", load))


@pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable on this platform"
)
class TestOversizedBatchesSplitAcrossSlots:
    def test_oversized_tick_splits_across_slots_losslessly(self):
        from repro.cluster.worker import _EstimateReturn

        ctx = multiprocessing.get_context("spawn")
        ring = BlockRing.create(ctx, slot_count=64, slot_bytes=1024)
        consumer = ring.handle().attach()
        try:
            rng = random.Random(99)
            items = random_items(rng, 300, flow_pool(5))  # far beyond one slot
            channel = _FakeChannel()
            returns = _EstimateReturn(channel, ring)
            returns.emit(items, 123.0)
            returns.flush()
            tokens = [m for m in channel.messages if m[0] == "est"]
            assert len(tokens) >= 2  # the tick genuinely spilled across slots
            assert not [m for m in channel.messages if m[0] == "progress"]
            decoded: list = []
            for _ in tokens:
                segments = consumer.pop_segments(timeout=1.0)
                assert segments is not None
                for segment in segments:
                    batch = EstimateBatch.read_from(segment)
                    assert batch.low_watermark == 123.0
                    decoded.extend(batch.to_estimates())
                    batch = None
                segments = None
                consumer.release()
            assert_rows_bit_identical(decoded, items)
        finally:
            consumer.close()
            ring.close()
            ring.unlink()

    def test_single_oversized_estimate_falls_back_to_queue(self):
        from repro.cluster.worker import _EstimateReturn

        ctx = multiprocessing.get_context("spawn")
        ring = BlockRing.create(ctx, slot_count=2, slot_bytes=1024)
        consumer = ring.handle().attach()
        try:
            monster = StreamEstimate(
                flow=None,
                estimate=PipelineEstimate(
                    window_start=0.0,
                    frame_rate=1.0,
                    bitrate_kbps=2.0,
                    frame_jitter_ms=3.0,
                    resolution="r" * 4096,  # side table alone outsizes a slot
                    source="ml",
                ),
            )
            channel = _FakeChannel()
            returns = _EstimateReturn(channel, ring)
            returns.emit([monster], 1.0)
            assert channel.messages == [("progress", [monster], 1.0, None)]
            assert returns.stats()["queue_fallbacks"] == 1
        finally:
            consumer.close()
            ring.close()
            ring.unlink()
