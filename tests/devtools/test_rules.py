"""Fixture corpus: every detlint rule detects its seeded violation.

One entry per rule: a ``bad`` snippet that must produce at least one
finding of exactly that rule, a ``good`` snippet that must stay clean, and
-- driven generically for the whole corpus -- the suppression behaviour: a
``# detlint: disable=RULE`` comment on the finding's line silences it and
counts it as suppressed.

Snippets are linted with ``select=(rule,)``, which forces the rule past its
path scoping (scoping itself is pinned separately below), under a ``path``
chosen to satisfy rules that inspect the path inside ``visit`` (EXC001's
worker-loop clause).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass

import pytest

from repro.devtools import lint_source
from repro.devtools.framework import all_rules, get_rule


@dataclass(frozen=True)
class Case:
    rule: str
    bad: str
    good: str
    path: str = "src/repro/somewhere.py"
    #: findings expected in ``bad`` (default: at least one, checked loosely)
    n_bad: int | None = None


CORPUS = [
    Case(
        rule="DET001",
        bad="""
            def route(key, n):
                return hash(key) % n
        """,
        good="""
            import zlib

            def route(key, n):
                return zlib.crc32(key.encode()) % n
        """,
    ),
    Case(
        rule="DET002",
        bad="""
            import numpy as np

            def predict(trees, X):
                return np.mean([t.predict(X) for t in trees], axis=0)
        """,
        good="""
            import numpy as np

            def predict(trees, X):
                total = trees[0].predict(X).astype(float, copy=True)
                for tree in trees[1:]:
                    total += tree.predict(X)
                return total / len(trees)
        """,
        path="src/repro/ml/forest.py",
    ),
    Case(
        rule="DET003",
        bad="""
            import random
            import numpy as np

            def jitter():
                return random.random() + np.random.normal()
        """,
        good="""
            import random
            import numpy as np

            def jitter(seed):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return local.random() + rng.normal()
        """,
        n_bad=2,
    ),
    Case(
        rule="DET004",
        bad="""
            from time import perf_counter
            import time

            def window_start(packet):
                return time.time() - perf_counter()
        """,
        good="""
            def window_start(packet, window_s):
                return int(packet.timestamp / window_s) * window_s
        """,
        path="src/repro/core/windows.py",
        n_bad=2,
    ),
    Case(
        rule="CODEC001",
        bad="""
            import struct
            import numpy as np

            HEADER = struct.Struct("4sHHqq")
            COLUMN = np.dtype("f8")

            def scratch(n, values):
                buf = np.empty(n, dtype="i4")
                return buf, values.astype(np.int64)
        """,
        good="""
            import struct
            import numpy as np

            HEADER = struct.Struct("<4sHHqq")
            COLUMN = np.dtype("<f8")

            def scratch(n, values):
                buf = np.empty(n, dtype="<i4")
                return buf, values.astype(np.dtype("<i8"))
        """,
        path="src/repro/net/estwire.py",
        n_bad=4,
    ),
    Case(
        rule="CODEC002",
        bad="""
            import numpy as np

            def peek(buf):
                return np.frombuffer(buf, dtype="<i8", count=2)
        """,
        good="""
            from repro.net.block import PacketBlock

            def peek(buf):
                return PacketBlock.read_from(memoryview(buf))
        """,
        path="src/repro/cluster/somefile.py",
    ),
    Case(
        rule="SPAWN001",
        bad="""
            import multiprocessing

            def start(ctx):
                def run():
                    pass
                a = multiprocessing.Process(target=lambda: None)
                b = ctx.Process(target=run)
                return a, b
        """,
        good="""
            import multiprocessing

            def worker_main():
                pass

            def start(ctx):
                a = multiprocessing.Process(target=worker_main)
                b = ctx.Process(target=worker_main, args=(1,))
                return a, b
        """,
        n_bad=2,
    ),
    Case(
        rule="OBS001",
        bad="""
            def tick(self, n):
                self.obs.inc("qoe_ticks_total")
                registry = self.registry
                registry.observe("qoe_batch_rows", n)
        """,
        good="""
            def tick(self, n, emitted):
                obs = self.obs
                if obs is None:
                    return
                obs.inc("qoe_ticks_total")
                if self.registry is not None and emitted:
                    self.registry.observe("qoe_batch_rows", n)

            def close(self):
                if self.obs is None:
                    pass
                else:
                    self.obs.set_gauge("qoe_open_flows", 0)

            def sweep(self):
                assert self.obs is not None
                self.obs.inc("qoe_sweeps_total")
        """,
        path="src/repro/core/streaming.py",
        n_bad=2,
    ),
    Case(
        rule="EXC001",
        bad="""
            def pump(queue):
                try:
                    queue.get()
                except:
                    pass

            def loop(channel):
                try:
                    channel.tick()
                except Exception:
                    pass
        """,
        good="""
            import traceback

            def pump(queue):
                try:
                    queue.get()
                except ValueError:
                    pass

            def loop(channel):
                try:
                    channel.tick()
                except BaseException:
                    channel.error(traceback.format_exc())

            def drive(channel):
                try:
                    channel.tick()
                except Exception:
                    raise RuntimeError("worker failed") from None
        """,
        path="src/repro/cluster/worker.py",
        n_bad=2,
    ),
    Case(
        rule="API001",
        bad="""
            from dataclasses import dataclass

            @dataclass
            class RetryConfig:
                attempts: int = 3
        """,
        good="""
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RetryConfig:
                attempts: int = 3

            @dataclass
            class _ScratchConfig:
                attempts: int = 3

            class PlainConfig:
                attempts = 3
        """,
    ),
    Case(
        rule="API002",
        bad="""
            import dataclasses
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DelayEstimate:
                delay_ms: float

            @dataclasses.dataclass(slots=True)
            class LossEstimate:
                loss: float

            @dataclass
            class JitterEstimate:
                jitter_ms: float
        """,
        good="""
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class DelayEstimate:
                delay_ms: float

            @dataclass
            class _ScratchEstimate:
                delay_ms: float

            @dataclass(frozen=True)
            class DelayEstimateRow:
                delay_ms: float

            class PlainEstimate:
                delay_ms = 0.0
        """,
        n_bad=3,
    ),
]


def _lint(case: Case, source: str):
    return lint_source(textwrap.dedent(source), path=case.path, select=(case.rule,))


@pytest.mark.parametrize("case", CORPUS, ids=[case.rule for case in CORPUS])
def test_bad_snippet_detected(case: Case):
    result = _lint(case, case.bad)
    assert result.findings, f"{case.rule} did not fire on its seeded violation"
    assert {finding.rule for finding in result.findings} == {case.rule}
    if case.n_bad is not None:
        assert len(result.findings) == case.n_bad


@pytest.mark.parametrize("case", CORPUS, ids=[case.rule for case in CORPUS])
def test_good_snippet_clean(case: Case):
    result = _lint(case, case.good)
    assert result.findings == [], f"{case.rule} false-positived on the good snippet"


@pytest.mark.parametrize("case", CORPUS, ids=[case.rule for case in CORPUS])
def test_suppression_honored(case: Case):
    source = textwrap.dedent(case.bad)
    first = lint_source(source, path=case.path, select=(case.rule,)).findings[0]
    lines = source.splitlines()
    lines[first.line - 1] += f"  # detlint: disable={case.rule} -- fixture"
    suppressed = lint_source("\n".join(lines), path=case.path, select=(case.rule,))
    assert suppressed.suppressed >= 1
    assert all(
        finding.line != first.line for finding in suppressed.findings
    ), "suppression on the finding line must silence exactly that line"


def test_corpus_covers_every_rule():
    assert {case.rule for case in CORPUS} == {rule.id for rule in all_rules()}
    assert len(all_rules()) >= 10


# -- scoping pins: the default run applies rules only where they police ------


def test_codec_rules_scoped_to_codec_modules():
    assert get_rule("CODEC001").applies_to("src/repro/net/block.py")
    assert not get_rule("CODEC001").applies_to("src/repro/core/streaming.py")
    # The codecs themselves are exactly where frombuffer is allowed.
    assert not get_rule("CODEC002").applies_to("src/repro/net/estwire.py")
    assert get_rule("CODEC002").applies_to("src/repro/cluster/shm.py")
    # The pcap decoder is a codec too: frombuffer allowed, byte order policed.
    assert get_rule("CODEC001").applies_to("src/repro/net/pcap.py")
    assert not get_rule("CODEC002").applies_to("src/repro/net/pcap.py")


def test_codec001_network_order_only_in_the_foreign_format_codec():
    """pcap fields are file-/network-order: '>' is explicit there, a bug elsewhere."""
    source = textwrap.dedent(
        """
        import struct
        import numpy as np

        PORT = np.dtype(">u2")
        HEAD = np.dtype([("caplen", "<u4"), ("ethertype", ">u2"), ("ttl", "|u1")])
        WORD = struct.Struct("!H")
        """
    )
    in_pcap = lint_source(source, path="src/repro/net/pcap.py", select=("CODEC001",))
    assert in_pcap.findings == []
    in_block = lint_source(source, path="src/repro/net/block.py", select=("CODEC001",))
    assert len(in_block.findings) == 4  # '>u2' twice, '|u1', '!H'
    unspelled = 'import numpy as np\nHEAD = np.dtype([("ethertype", "u2")])\nRAW = np.dtype("u1")\n'
    assert len(lint_source(unspelled, path="src/repro/net/pcap.py", select=("CODEC001",)).findings) == 2


def test_det002_scoped_to_forest():
    assert get_rule("DET002").applies_to("src/repro/ml/forest.py")
    assert not get_rule("DET002").applies_to("src/repro/ml/tree.py")


def test_det004_scoped_to_pure_modules():
    rule = get_rule("DET004")
    assert rule.applies_to("src/repro/core/frame_assembly.py")
    assert rule.applies_to("src/repro/ml/forest.py")
    # The engine/monitor layers time things legitimately (obs spans,
    # MonitorReport.timing); the obs-off bit-identity pin covers them.
    assert not rule.applies_to("src/repro/core/streaming.py")
    assert not rule.applies_to("src/repro/monitor.py")
    assert not rule.applies_to("src/repro/obs/registry.py")


def test_obs001_scoped_to_hot_path_packages():
    rule = get_rule("OBS001")
    assert rule.applies_to("src/repro/cluster/fanin.py")
    assert not rule.applies_to("src/repro/obs/logsink.py")
    assert not rule.applies_to("src/repro/sinks/summary.py")


def test_obs001_ignores_non_obs_receivers():
    source = textwrap.dedent(
        """
        def bump(self):
            self.sequence.inc("next")
        """
    )
    assert lint_source(source, select=("OBS001",)).findings == []


def test_exc001_allows_broad_handlers_outside_cluster():
    source = textwrap.dedent(
        """
        def probe():
            try:
                risky()
            except Exception:
                pass
        """
    )
    assert lint_source(source, path="src/repro/netem/link.py", select=("EXC001",)).findings == []
    cluster = lint_source(source, path="src/repro/cluster/monitor.py", select=("EXC001",))
    assert [finding.rule for finding in cluster.findings] == ["EXC001"]
