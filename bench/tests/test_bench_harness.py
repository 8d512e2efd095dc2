"""Self-tests of the benchmark harness (no wall-clock assertions).

Collected by the tier-1 command; the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from qoebench import harness, spec  # noqa: E402
from qoebench.gen import build_block, input_digest  # noqa: E402
from repro.core.pipeline import PipelineEstimate  # noqa: E402
from repro.core.streaming import StreamEstimate  # noqa: E402
from repro.net.trace import PacketTrace  # noqa: E402
from repro.sinks import CollectorSink  # noqa: E402
from repro.sources import TraceSource  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_input_is_a_function_of_the_seed():
    assert input_digest(build_block(8, 2000, 11)) == input_digest(build_block(8, 2000, 11))
    assert input_digest(build_block(8, 2000, 11)) != input_digest(build_block(8, 2000, 12))


def test_generated_block_is_sorted_with_first_seen_flow_codes():
    block = build_block(16, 3000, 5)
    assert len(block) == 3000
    assert (block.timestamps[1:] >= block.timestamps[:-1]).all()
    first_rows = [int((block.flow_codes == code).argmax()) for code in range(len(block.flows))]
    assert first_rows == sorted(first_rows)
    rebuilt = type(block).from_packets(block.to_packets())
    assert rebuilt.flows == block.flows and rebuilt.addresses == block.addresses
    assert (rebuilt.flow_codes == block.flow_codes).all()


def _estimate(flow, window_start: float) -> StreamEstimate:
    estimate = PipelineEstimate(window_start, 25.0, 900.0, 4.0, None, "heuristic")
    return StreamEstimate(flow=flow, estimate=estimate)


def test_emit_lag_on_a_hand_built_two_flow_case():
    clock = harness.ReadClock()
    collector = CollectorSink()
    sink = harness.LagSink(collector, clock)
    # The source has handed out packets up to t=1.30 when flow A's window [0, 1)
    # arrives, up to t=2.05 for flow B's [0, 1) and A's [1, 2); the capture ends
    # at t=2.40, and the flush closes B's incomplete window [1, 2) ... [2, 3).
    clock.newest = 1.30
    sink.emit(_estimate("A", 0.0))
    clock.newest = 2.05
    sink.emit(_estimate("B", 0.0))
    sink.emit(_estimate("A", 1.0))
    clock.newest = 2.40
    sink.emit(_estimate("B", 1.0))
    sink.emit(_estimate("A", 2.0))
    sink.close()
    assert collector.closed and len(collector) == 5 and sink.closed_at is not None
    lags = harness.emit_lags(sink.stamps, window_s=1.0, last_ts=2.40)
    assert [round(lag, 9) for lag in lags] == [0.30, 1.05, 0.05, 0.40]
    assert harness.percentile(lags, 0.50) == 0.30000000000000004
    assert harness.percentile(lags, 0.99) == 1.0499999999999998


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert harness.percentile(samples, 0.50) == 50.0
    assert harness.percentile(samples, 0.99) == 99.0
    assert harness.percentile([7.0], 0.99) == 7.0


class _FakeTime:
    """A wall clock that only moves when slept on -- and wakes early, as sleep may."""

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds * 0.6


def test_paced_source_never_releases_a_chunk_early():
    fake = _FakeTime()
    block = build_block(4, 2000, 3)
    clock = harness.PacedClock(pace=3.0, wall_clock=fake.clock)
    source = harness.PacedSource(
        TraceSource(PacketTrace.from_block(block)), clock, harness.SpeedProbe(),
        wall_clock=fake.clock, sleep=fake.sleep,
    )
    released = []
    for chunk in source.blocks(256):
        released.append((fake.now, clock.due(float(chunk.timestamps[-1]))))
        fake.now += 0.001  # the monitor takes a moment with each chunk
    assert len(released) == 8 and source.n_packets == 2000
    assert all(now >= due for now, due in released)
    assert all(late >= 0.0 for late in source.late_s)
    # 2000 packets of 4 flows span ~6.7 s of stream: paced 3x, ~2.2 s of wall.
    span = float(block.timestamps[-1] - block.timestamps[0])
    assert released[-1][0] - 100.0 >= span / 3.0 - 0.3
    # A monitor that stalls finds the next chunk overdue, and that is recorded.
    assert source.late_share == 0.0
    source.late_s.append(0.5)
    assert source.late_share > 0.0


def test_speed_probe_is_rate_limited_and_scales_times_to_reference_speed():
    probe = harness.SpeedProbe()
    assert probe.slowdown == 1.0  # no samples: times stand as measured
    probe.tick()
    probe.tick()  # inside PROBE_EVERY_S of the first: skipped
    assert len(probe.samples) == 1 and probe.spent_s == probe.samples[0]
    probe.sample(2)
    assert len(probe.samples) == 3
    probe.samples[:] = [harness.REFERENCE_PROBE_S, 2 * harness.REFERENCE_PROBE_S, 9 * harness.REFERENCE_PROBE_S]
    assert probe.slowdown == 4.0  # in-pass ticks: the mean
    probe.ticking = False
    assert probe.slowdown == 2.0  # bracket samples: the median


def test_count_failed_counts_missing_extra_changed_and_misordered():
    rows = harness.estimate_rows([_estimate("A", 0.0), _estimate("B", 0.0), _estimate("A", 1.0)])
    assert harness.count_failed(rows, rows) == 0
    assert harness.count_failed(rows, rows[:2]) == 1
    assert harness.count_failed(rows, rows + rows[:1]) == 1
    assert harness.count_failed(rows, [rows[1], rows[0], rows[2]]) == 2
    nan_rows = harness.estimate_rows(
        [StreamEstimate("A", PipelineEstimate(0.0, 1.0, 2.0, float("nan"), None, "heuristic"))]
    )
    assert harness.count_failed(nan_rows, list(nan_rows)) == 0


def test_benchmark_json_matches_the_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"] and contract["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in contract["workloads"]] == [w.name for w in spec.WORKLOADS] == [
        "vantage512-block", "vantage512-push", "pcap8-trained", "sharded64-shm",
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert [m["name"] for m in contract["end_to_end"]] == [m.name for m in spec.END_TO_END] == [
        "wall_pps", "cpu_s_per_mpkt", "emit_lag_s_p50", "emit_lag_s_p99", "peak_rss_mb", "setup_s",
    ]
    for entry, metric in zip(contract["end_to_end"], spec.END_TO_END):
        assert entry == {"name": metric.name, "unit": metric.unit, "better": metric.better, "bound": metric.bound}
        assert 0.0 < metric.bound <= 0.25
    assert [m["name"] for m in contract["per_layer"]] == [m.name for m in spec.PER_LAYER]
    assert 1 <= len(spec.PER_LAYER) <= 128
    for entry, metric in zip(contract["per_layer"], spec.PER_LAYER):
        assert entry == {"name": metric.name, "unit": metric.unit, "better": metric.better}


def test_every_name_is_well_formed_and_every_layer_metric_says_what_it_moves():
    names = [w.name for w in spec.WORKLOADS] + [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    end_to_end = {m.name for m in spec.END_TO_END}
    workloads = {w.name for w in spec.WORKLOADS}
    for metric in spec.PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.on in workloads, metric.name
        assert metric.better in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit)


def test_smoke_run_prints_every_metric_name():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed = set(done.stdout.split())
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert metric.name in printed, metric.name
    assert "fail_share 0" in done.stdout
    for workload in spec.WORKLOADS:
        if not workload.sharded:
            assert (BENCH_DIR / "out" / f"trace-{workload.name}.jsonl").is_file()


def test_entry_point_is_guarded_for_spawned_workers():
    source = (BENCH_DIR / "run.py").read_text()
    assert 'if __name__ == "__main__":' in source
    assert source.rstrip().endswith("sys.exit(main())")
