"""Feature extraction (Table 1).

Two feature sets are defined:

* **IP/UDP features** (14): per-window flow statistics -- bytes, packets,
  five packet-size statistics, five inter-arrival statistics -- plus two
  VCA-semantics features: the number of unique packet sizes and the number of
  microbursts (runs of packets separated by less than a small inter-arrival
  threshold).
* **RTP features** (11, used together with the 12 flow statistics): unique
  RTP timestamps of the video and retransmission streams plus their
  intersection and union, the video marker-bit sum, the count of out-of-order
  video sequence numbers, and five statistics of the per-frame RTP lag
  (difference between actual and ideal frame arrival times).
"""

from __future__ import annotations

import numpy as np

from repro.core.media import MediaClassifier
from repro.core.windows import WindowedTrace
from repro.net.packet import Packet
from repro.rtp.header import VIDEO_CLOCK_RATE, sequence_distance
from repro.rtp.payload_types import PayloadTypeMap

__all__ = [
    "IPUDP_FEATURE_NAMES",
    "RTP_FEATURE_NAMES",
    "FLOW_FEATURE_NAMES",
    "extract_flow_features",
    "extract_rtp_features",
    "IPUDPFeatureAccumulator",
    "MICROBURST_IAT_THRESHOLD",
    "window_features",
]

#: Inter-arrival threshold used to delimit microbursts (seconds).  Packets of
#: a frame leave the sender back to back, so gaps below a few milliseconds
#: indicate the same burst.
MICROBURST_IAT_THRESHOLD = 0.003

#: The 12 flow-level statistics shared by both feature sets.
FLOW_FEATURE_NAMES: tuple[str, ...] = (
    "# bytes",
    "# packets",
    "Size [mean]",
    "Size [stdev]",
    "Size [median]",
    "Size [min]",
    "Size [max]",
    "IAT [mean]",
    "IAT [stdev]",
    "IAT [median]",
    "IAT [min]",
    "IAT [max]",
)

#: The paper's 14 IP/UDP features: flow statistics + two semantics features.
IPUDP_FEATURE_NAMES: tuple[str, ...] = FLOW_FEATURE_NAMES + (
    "# unique sizes",
    "# microbursts",
)

#: RTP-derived features used by the RTP ML baseline (plus the flow features).
RTP_FEATURE_NAMES: tuple[str, ...] = FLOW_FEATURE_NAMES + (
    "# unique RTPvid TS",
    "# unique RTPrtx TS",
    "# unique RTP TS [intersection]",
    "# unique RTP TS [union]",
    "Markervid bit sum",
    "# out-of-order seq",
    "RTP lag [mean]",
    "RTP lag [stdev]",
    "RTP lag [median]",
    "RTP lag [min]",
    "RTP lag [max]",
)


def _five_stats(values: np.ndarray) -> list[float]:
    """Mean, standard deviation, median, minimum, maximum (zeros when empty).

    The mean and stdev sum with ``np.add.reduceat`` over the one segment, the
    reduction :func:`_segment_five_stats` runs over many windows at once.
    """
    if values.size == 0:
        return [0.0, 0.0, 0.0, 0.0, 0.0]
    mean = np.add.reduceat(values, [0])[0] / values.size
    deviations = values - mean
    return [
        float(mean),
        float(np.sqrt(np.add.reduceat(deviations * deviations, [0])[0] / values.size)),
        float(np.median(values)),
        float(np.min(values)),
        float(np.max(values)),
    ]


def extract_flow_features(packets: list[Packet], window_s: float) -> list[float]:
    """The 12 flow-level statistics for one window."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    sizes = np.array([p.payload_size for p in packets], dtype=float)
    timestamps = np.sort(np.array([p.timestamp for p in packets], dtype=float))
    iats = np.diff(timestamps) if timestamps.size >= 2 else np.array([], dtype=float)
    features = [
        float(sizes.sum()) / window_s,   # bytes per second
        len(packets) / window_s,         # packets per second
    ]
    features.extend(_five_stats(sizes))
    features.extend(_five_stats(iats))
    return features


class IPUDPFeatureAccumulator:
    """Incremental computation of the 14 IP/UDP features for one window.

    The per-window reference operator: feed it one window's packets as they
    arrive (in non-decreasing timestamp order), by :meth:`push` or by block
    columns with :meth:`extend`.  The benchmark's layer replay runs it as the
    feature operator.  Neither training nor serving keeps accumulators: both
    resolve windows from their raw video rows with :func:`window_features`
    (the engine per tick, :meth:`IPUDPMLEstimator.feature_matrix
    <repro.core.estimators.IPUDPMLEstimator.feature_matrix>` per call), and
    both are pinned against this class.  Count, byte sum, min/max, the
    unique-size set and the microburst state are maintained incrementally and
    give O(1) mid-window introspection; the per-window size and inter-arrival
    buffers are kept so the exact order-sensitive statistics (mean, stdev,
    median) come from the *same numpy operations* as the kernel -- memory is
    O(packets per window), never O(trace).

    The feature vector is bit-identical to the kernel's row for the same
    window: a last-ulp difference could otherwise cross a forest split
    threshold and make training and serving rows diverge.
    """

    __slots__ = (
        "window_s",
        "classifier",
        "n",
        "byte_sum",
        "size_min",
        "size_max",
        "unique_sizes",
        "microbursts",
        "_last_timestamp",
        "_sizes",
        "_n_sizes",
        "_iats",
        "_n_iats",
    )

    def __init__(
        self,
        window_s: float,
        classifier: MediaClassifier | None = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.classifier = classifier if classifier is not None else MediaClassifier()
        # Live counters, readable mid-window (a monitor can report the
        # partial second without touching the buffers).
        self.n = 0
        self.byte_sum = 0.0
        self.size_min = float("inf")
        self.size_max = float("-inf")
        self.unique_sizes: set[int] = set()
        self.microbursts = 0
        self._last_timestamp: float | None = None
        # Growing float64 buffers; the first _n_sizes / _n_iats entries count.
        self._sizes = _EMPTY
        self._n_sizes = 0
        self._iats = _EMPTY
        self._n_iats = 0

    def push(self, packet: Packet) -> bool:
        """Account one packet; returns whether it counted as (predicted) video.

        Packets must arrive in non-decreasing timestamp order (the streaming
        engine's reorder buffer guarantees this), the order
        :func:`window_features` takes a window's rows in.
        """
        if not self.classifier.is_video(packet):
            return False
        size = float(packet.payload_size)
        self.n += 1
        self.byte_sum += size
        if size < self.size_min:
            self.size_min = size
        if size > self.size_max:
            self.size_max = size
        self.unique_sizes.add(packet.payload_size)
        self._sizes = _reserved(self._sizes, self._n_sizes, 1)
        self._sizes[self._n_sizes] = size
        self._n_sizes += 1
        if self._last_timestamp is None:
            self.microbursts = 1
        else:
            gap = packet.timestamp - self._last_timestamp
            if gap >= MICROBURST_IAT_THRESHOLD:
                self.microbursts += 1
            self._iats = _reserved(self._iats, self._n_iats, 1)
            self._iats[self._n_iats] = gap
            self._n_iats += 1
        self._last_timestamp = packet.timestamp
        return True

    def extend(self, timestamps: np.ndarray, sizes: np.ndarray) -> int:
        """Account a (timestamp-ordered) run of packets from block columns.

        The columnar counterpart of :meth:`push`: ``sizes`` is an integer
        payload-size array, ``timestamps`` float64 arrival times, both for
        the *same* rows.  Produces exactly the state sequential :meth:`push`
        calls would -- the gap arithmetic is the same float subtraction
        (``np.diff``), buffers receive the same float64 values, and the
        video filter is :meth:`MediaClassifier.video_mask
        <repro.core.media.MediaClassifier.video_mask>` (identical to
        ``is_video`` for size-threshold classifiers) -- so :meth:`features`
        stays bit-identical between the two paths.  Returns the number of
        rows that counted as video.
        """
        mask = self.classifier.video_mask(sizes)
        n = int(np.count_nonzero(mask))
        if n == 0:
            return 0
        if n < len(sizes):
            timestamps = timestamps[mask]
            sizes = sizes[mask]
        used = self._n_sizes
        self._sizes = _reserved(self._sizes, used, n)
        float_sizes = self._sizes[used : used + n]
        float_sizes[:] = sizes
        self._n_sizes = used + n
        self.n += n
        # Integer payload sizes: the byte sum is exact in any order, and one
        # list serves the sum, the extremes and the unique set.
        values = sizes.tolist()
        self.byte_sum += float(sum(values))
        low = float(min(values))
        high = float(max(values))
        if low < self.size_min:
            self.size_min = low
        if high > self.size_max:
            self.size_max = high
        self.unique_sizes.update(values)
        # The gaps go straight into the buffer: the same float subtraction
        # as np.diff over [last timestamp] ++ run.
        previous = self._last_timestamp
        used = self._n_iats
        n_gaps = n if previous is not None else n - 1
        self._iats = _reserved(self._iats, used, n_gaps)
        gaps = self._iats[used : used + n_gaps]
        if previous is None:
            self.microbursts += 1  # the run's first video packet opens a burst
            np.subtract(timestamps[1:], timestamps[:-1], out=gaps)
        else:
            gaps[0] = timestamps[0] - previous
            np.subtract(timestamps[1:], timestamps[:-1], out=gaps[1:])
        self._n_iats = used + n_gaps
        self.microbursts += int(np.count_nonzero(gaps >= MICROBURST_IAT_THRESHOLD))
        self._last_timestamp = float(timestamps[-1])
        return n

    @property
    def sizes(self) -> np.ndarray:
        """The window's video payload sizes so far (float64, arrival order)."""
        return self._sizes[: self._n_sizes]

    @property
    def iats(self) -> np.ndarray:
        """The window's video inter-arrival gaps so far (float64)."""
        return self._iats[: self._n_iats]

    def features(self) -> np.ndarray:
        """The 14-feature vector for the window accumulated so far.

        The five-number summaries are computed from the buffers by
        :func:`_five_stats` (``np.add.reduceat`` sums, as in the kernel), so
        the result is bit-identical, not merely close; the running counters
        drive the exact integer features.  This is the per-window reference
        that :func:`window_features` is pinned against.
        """
        sizes = self.sizes
        features = [
            float(sizes.sum()) / self.window_s,  # bytes per second
            self.n / self.window_s,              # packets per second
        ]
        features.extend(_five_stats(sizes))
        features.extend(_five_stats(self.iats))
        features.append(float(len(self.unique_sizes)))
        features.append(float(self.microbursts))
        return np.array(features, dtype=float)


def window_features(
    timestamps: np.ndarray, sizes: np.ndarray, lengths: np.ndarray, window_s: float | np.ndarray
) -> np.ndarray:
    """The 14 IP/UDP features of Table 1 for many windows, from their raw video rows.

    Window *i* owns the next ``lengths[i]`` rows of ``timestamps`` /
    ``sizes``: its (predicted) video packets in timestamp order.  Its rates
    divide by ``window_s``, one duration for every window or one per window.
    Row *i* is bit for bit :meth:`IPUDPFeatureAccumulator.features` after
    pushing the window's packets: the gaps are the same float subtraction,
    the five-number summaries come from :func:`_segment_five_stats` (the same
    ``np.add.reduceat`` sums as :func:`_five_stats`), and the counts are
    exact.  So a window's features never depend on what else is resolved
    with it.  This is the only IP/UDP feature path: the streaming engine
    resolves every window it closes in a tick, across all flows, with one
    call, and training resolves a call's windows with one call.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    n_windows = len(lengths)
    window = np.repeat(np.arange(n_windows), lengths)
    inner = window[1:] == window[:-1]  # the gap joins two rows of one window
    gaps = (timestamps[1:] - timestamps[:-1])[inner]
    gap_window = window[1:][inner]
    by_size = np.lexsort((sizes, window))
    ordered, owner = sizes[by_size], window[by_size]
    distinct = np.ones(len(ordered), dtype=bool)
    distinct[1:] = (ordered[1:] != ordered[:-1]) | (owner[1:] != owner[:-1])
    bursts = np.bincount(gap_window[gaps >= MICROBURST_IAT_THRESHOLD], minlength=n_windows)
    stats = _segment_five_stats(
        np.concatenate((sizes, gaps)), np.concatenate((lengths, np.maximum(lengths - 1, 0)))
    )
    out = np.empty((n_windows, len(IPUDP_FEATURE_NAMES)))
    out[:, 0] = stats[:n_windows, 5] / window_s  # bytes per second
    out[:, 1] = lengths / window_s  # packets per second
    out[:, 2:7] = stats[:n_windows, :5]
    out[:, 7:12] = stats[n_windows:, :5]
    out[:, 12] = np.bincount(owner[distinct], minlength=n_windows)
    out[:, 13] = bursts + (lengths > 0)  # a window's first video packet opens a burst
    return out


def _segment_five_stats(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`_five_stats` of every segment of ``values``, plus its sum.

    Returns ``(n_segments, 6)``: mean, stdev, median, min, max, sum -- zeros
    for an empty segment.  The sums are one ``np.add.reduceat`` over the
    non-empty segments' starts (it would answer ``values[i]`` for an empty
    one), which sums a segment the same way at any offset and beside any
    neighbours, so each row is bit-identical to :func:`_five_stats` on the
    segment alone.
    """
    n_segments = len(lengths)
    out = np.zeros((n_segments, 6))
    if len(values) == 0:
        return out
    starts = np.zeros(n_segments, dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    nonempty = lengths > 0
    first = starts[nonempty]
    sizes = lengths[nonempty]
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.add.reduceat(values, first)
        means = sums / sizes
        deviations = values - np.repeat(means, sizes)
        out[nonempty, 1] = np.sqrt(np.add.reduceat(deviations * deviations, first) / sizes)
    out[nonempty, 0] = means
    out[nonempty, 5] = sums
    # The median: np.median partitions, then takes the mean of the middle
    # value (odd) or two (even) -- 0.0 + (a + b), over 2 -- and answers NaN
    # if any value is NaN (sorted last).  Sort by value, then stably by
    # segment (a radix sort on 16-bit segment ids; np.lexsort is ~8x slower).
    ids = np.arange(n_segments, dtype=np.uint16 if n_segments <= 1 << 16 else np.intp)
    by_value = np.argsort(values)
    segment = np.repeat(ids, lengths)[by_value]
    ordered = values[by_value[np.argsort(segment, kind="stable")]]
    low = ordered[first + (sizes - 1) // 2]
    with np.errstate(invalid="ignore", over="ignore"):
        median = np.where(sizes % 2 == 0, (0.0 + (low + ordered[first + sizes // 2])) / 2.0, 0.0 + low)
    median[np.isnan(ordered[first + sizes - 1])] = np.nan
    out[nonempty, 2] = median
    out[nonempty, 3] = np.minimum.reduceat(values, first)
    out[nonempty, 4] = np.maximum.reduceat(values, first)
    return out


_EMPTY = np.empty(0)


def _reserved(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buffer`` (its first ``used`` values) with room for ``extra`` more."""
    needed = used + extra
    if needed <= len(buffer):
        return buffer
    grown = np.empty(max(needed, 2 * len(buffer), 16))
    grown[:used] = buffer[:used]
    return grown


def _rtp_lag_stats(video_packets: list[Packet]) -> list[float]:
    """Five statistics of per-frame transmission lag (Section 3.3).

    The first frame is assumed to have zero delay; for frame *i* the lag is
    the difference between its reception time and the time predicted by its
    RTP timestamp advance at the 90 kHz clock.
    """
    frames: dict[int, float] = {}
    for packet in sorted(video_packets, key=lambda p: p.timestamp):
        assert packet.rtp is not None
        ts = packet.rtp.timestamp
        frames.setdefault(ts, packet.timestamp)
    if len(frames) < 2:
        return [0.0, 0.0, 0.0, 0.0, 0.0]
    ordered = sorted(frames.items(), key=lambda item: item[1])
    ts0, t0 = ordered[0]
    lags = []
    for ts, arrival in ordered:
        expected = t0 + ((ts - ts0) & 0xFFFFFFFF) / VIDEO_CLOCK_RATE
        # Unwrap negative timestamp distances (reordering across the origin).
        if ((ts - ts0) & 0xFFFFFFFF) >= 0x80000000:
            expected = t0 - (0x100000000 - ((ts - ts0) & 0xFFFFFFFF)) / VIDEO_CLOCK_RATE
        lags.append(arrival - expected)
    return _five_stats(np.array(lags, dtype=float))


def extract_rtp_features(
    window: WindowedTrace,
    payload_types: PayloadTypeMap,
) -> np.ndarray:
    """The RTP ML feature vector for one window (flow stats + RTP features)."""
    rtp_packets = [p for p in window.packets if p.rtp is not None]
    video_packets = [p for p in rtp_packets if p.rtp.payload_type == payload_types.video]
    rtx_packets = (
        [p for p in rtp_packets if p.rtp.payload_type == payload_types.video_rtx]
        if payload_types.video_rtx is not None
        else []
    )

    features = extract_flow_features(video_packets, window.duration)

    video_ts = {p.rtp.timestamp for p in video_packets}
    rtx_ts = {p.rtp.timestamp for p in rtx_packets}
    features.append(float(len(video_ts)))
    features.append(float(len(rtx_ts)))
    features.append(float(len(video_ts & rtx_ts)))
    features.append(float(len(video_ts | rtx_ts)))

    features.append(float(sum(1 for p in video_packets if p.rtp.marker)))

    # Out-of-order video sequence numbers: count of adjacent (arrival-ordered)
    # packets whose sequence number does not advance by exactly one.
    ordered = sorted(video_packets, key=lambda p: p.timestamp)
    out_of_order = 0
    for previous, current in zip(ordered, ordered[1:]):
        if sequence_distance(previous.rtp.sequence_number, current.rtp.sequence_number) != 1:
            out_of_order += 1
    features.append(float(out_of_order))

    features.extend(_rtp_lag_stats(video_packets))
    return np.array(features, dtype=float)
