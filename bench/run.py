#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 bench/run.py                        all workloads, end-to-end metrics
    python3 bench/run.py --trace                all workloads, per-layer metrics + span files
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                one run; the last stdout line is the result JSON
    python3 bench/run.py --check-repeat         run everything twice, compare within the bounds
    python3 bench/run.py --sweep flows=8,64,512,4096
    python3 bench/run.py --smoke                tiny single-process self-test of the harness

Run from the repository root.  ``src/`` is put on ``sys.path`` here, so no
``PYTHONPATH`` is needed (one that is set is harmless).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SWEEP_PACKETS = 150_000

# The sharded workload spawns workers that re-import this file as their main
# module: everything below the path set-up stays inside functions.
sys.path.insert(0, str(ROOT / "src"))


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: the program under test is missing ({ROOT / 'src' / 'repro'})")


def _format_end_to_end(summary: dict) -> str:
    lines = [
        f"workload {summary['workload']}  seed {summary['seed']}  packets {summary['n_packets']}  "
        f"flows {summary['n_flows']}  unpaced passes {summary['passes']}",
        f"  input sha256 {summary['digest']}",
    ]
    for name, entry in summary["end_to_end"].items():
        line = f"  {name:<16} {entry['value']:>14.6g} {entry['unit']:<10}"
        if "q1" in entry:
            line += (
                f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']} passes"
                f"  (as measured {entry['as_measured']:.6g})"
            )
        else:
            line += f" n {entry['n']} sample(s)"
        lines.append(line)
    slow = summary.get("slowdown")
    if slow:
        lines.append(
            f"  host ran at {min(slow):.2f}x-{max(slow):.2f}x the reference probe time during the passes; "
            "per-pass times are given at reference speed"
        )
    if "paced" in summary:
        paced = summary["paced"]
        lines.append(
            f"  paced pass: {paced['pace']:g}x stream time, {paced['offered_pps']:.0f} packets/s offered, "
            f"{paced['late_share']:.3f} of chunks released > 10 ms late, wall {paced['wall_s']:.2f} s"
        )
    share = summary["failed"] / summary["attempted"]
    lines.append(f"  checked: attempted {summary['attempted']}  failed {summary['failed']}  fail_share {share:g}")
    return "\n".join(lines)


def _format_per_layer(summary: dict) -> str:
    from qoebench.spec import PER_LAYER

    lines = [f"workload {summary['workload']}  seed {summary['seed']}  per-layer metrics (traced run)"]
    for metric in PER_LAYER:
        value = summary["per_layer"][metric.name]
        lines.append(f"  {metric.name:<42} {value:>14.6g} {metric.unit:<6} -> {metric.moves} on {metric.on}")
    lines.append(f"  spans: {summary['span_file']} ({summary['spans']} spans)")
    lines.append(f"  checked: attempted {summary['attempted']}  failed {summary['failed']}")
    return "\n".join(lines)


def _result_line(summary: dict, key: str) -> str:
    if key == "end_to_end":
        metrics = {name: {"value": e["value"], "unit": e["unit"]} for name, e in summary[key].items()}
    else:
        from qoebench.spec import PER_LAYER

        metrics = {m.name: {"value": summary[key][m.name], "unit": m.unit} for m in PER_LAYER}
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One run of one workload in this process; result JSON on the last line."""
    from qoebench import spec

    workload = spec.workload(name)
    if trace:
        from qoebench import layers

        summary = layers.trace(workload, seed, OUT_DIR)
        print(_format_per_layer(summary))
        result = _result_line(summary, "per_layer")
    else:
        from qoebench import harness

        summary = harness.measure(workload, seed, seconds, OUT_DIR)
        print(_format_end_to_end(summary))
        result = _result_line(summary, "end_to_end")
    stored = OUT_DIR / f"{'layers' if trace else 'result'}-{name}.json"
    stored.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"  stored: {stored}")
    print(result)
    return 0 if summary["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool, quiet: bool = False) -> tuple[int, dict]:
    """Every workload, each in a fresh subprocess; returns (status, results by workload)."""
    from qoebench import spec

    status = 0
    results: dict = {}
    for workload in spec.WORKLOADS:
        command = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.rstrip("\n").split("\n")
        if not quiet:
            print("\n".join(lines[:-1]), flush=True)
        try:
            results[workload.name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{workload.name}: no result (exit status {done.returncode})", file=sys.stderr)
            status = 1
            continue
        if done.returncode != 0 or not results[workload.name]["correct"]:
            status = 1
    return status, results


def check_repeat(seed: int, seconds: float) -> int:
    """Run the whole benchmark twice; fail if any end-to-end metric moves past its bound."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    status_a, first = run_all(seed, seconds, trace=False, quiet=True)
    status_b, second = run_all(seed, seconds, trace=False, quiet=True)
    status = status_a or status_b
    print(f"{'workload':<18} {'metric':<16} {'first':>12} {'second':>12} {'moved':>8} {'bound':>6}")
    for name in first:
        if name not in second:
            continue
        for metric, entry in first[name]["metrics"].items():
            a, b = entry["value"], second[name]["metrics"][metric]["value"]
            moved = abs(b - a) / abs(a)
            verdict = "" if moved <= bounds[metric] else "  OUT OF BOUND"
            if verdict:
                status = 1
            print(f"{name:<18} {metric:<16} {a:>12.6g} {b:>12.6g} {moved:>8.3f} {bounds[metric]:>6.2f}{verdict}")
    return status


def sweep(flow_counts: list[int], seed: int) -> int:
    """Diagnostic, not contract: wall_pps over flow count x ingest path (the ROADMAP table)."""
    from qoebench import harness, spec

    rows = []
    print(f"{'flows':>6} {'per-packet':>12} {'block 1024':>12} {'block 8192':>12}   (wall packets/s)")
    for n_flows in flow_counts:
        row = {"flows": n_flows, "packets": SWEEP_PACKETS}
        for label, block_size in (("push", None), ("block1024", 1024), ("block8192", 8192)):
            workload = spec.Workload(
                name=f"sweep-{n_flows}-{label}", why="flow-count sweep", n_flows=n_flows,
                n_packets=SWEEP_PACKETS, engine="push" if block_size is None else "block",
                block_size=block_size,
            )
            result = harness.run_pass(harness.build_input(workload, seed, OUT_DIR))
            row[label] = result.n_packets / result.wall_s
        rows.append(row)
        print(f"{n_flows:>6} {row['push']:>12.0f} {row['block1024']:>12.0f} {row['block8192']:>12.0f}", flush=True)
    (OUT_DIR / "scale.json").write_text(json.dumps({"seed": seed, "wall_pps": rows}, indent=2) + "\n")
    print(f"written: {OUT_DIR / 'scale.json'}")
    return 0


def smoke(seed: int) -> int:
    """Every metric name on 2k-packet inputs, single-process workloads only."""
    from qoebench import harness, layers, spec

    status = 0
    for workload in spec.WORKLOADS:
        if workload.sharded:
            continue
        measured = harness.measure(workload, seed, 0.0, OUT_DIR, n_packets=spec.SMOKE_PACKETS, min_passes=1)
        print(_format_end_to_end(measured))
        traced = layers.trace(workload, seed, OUT_DIR, n_packets=spec.SMOKE_PACKETS)
        print(_format_per_layer(traced))
        if not (measured["correct"] and traced["correct"]):
            status = 1
    return status


def stop_children() -> None:
    """Leave no process behind: stray workers, then multiprocessing's resource tracker.

    The shm transport starts a resource-tracker process that outlives its
    parent by a moment and is then nobody's to reap; stopping it here (close
    its pipe, wait for it) ends it before this process does.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None, help="how long the timed passes of a run last")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics, span file) instead of the timed one")
    parser.add_argument("--check-repeat", action="store_true", help="run the benchmark twice and compare")
    parser.add_argument("--sweep", metavar="flows=N,N,...", help="flow-count sweep (diagnostic)")
    parser.add_argument("--smoke", action="store_true", help="harness self-test on tiny inputs")
    args = parser.parse_args(argv)
    _require_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    from qoebench import spec

    seed = spec.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.smoke:
        return smoke(seed)
    if args.sweep:
        key, _, counts = args.sweep.partition("=")
        if key != "flows" or not counts:
            parser.error("--sweep takes flows=N,N,...")
        return sweep([int(n) for n in counts.split(",")], seed)
    if args.check_repeat:
        return check_repeat(seed, seconds)
    if args.workload:
        return run_one(args.workload, seed, seconds, bool(args.trace))
    status, _ = run_all(seed, seconds, bool(args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
