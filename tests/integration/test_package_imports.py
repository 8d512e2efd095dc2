"""What importing the package loads.

The package ``__init__``\\ s export their names lazily (PEP 562), so a
spawned shard worker -- which imports ``repro.cluster.worker`` by qualified
name -- loads the data plane and not the simulator, the dataset builders,
the network emulator, the evaluation protocol or the pcap decoder.  Each
check runs in a fresh interpreter: this process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules a worker never needs; any of them at import is spawn time wasted.
NOT_IN_A_WORKER = (
    "repro.webrtc.session",
    "repro.datasets",
    "repro.netem",
    "repro.core.evaluation",
    "repro.net.pcap",
    "repro.analysis",
)

LAZY_PACKAGES = ("repro", "repro.core", "repro.cluster", "repro.net", "repro.webrtc")


def run_fresh(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout)


def test_worker_module_loads_the_data_plane_only():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.cluster.worker\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert "repro.core.streaming" in loaded and "repro.net.block" in loaded
    for module in NOT_IN_A_WORKER:
        assert not [name for name in loaded if name == module or name.startswith(module + ".")], module


def test_star_import_resolves_every_exported_name():
    resolved = run_fresh(
        "import importlib, json\n"
        f"packages = {LAZY_PACKAGES!r}\n"
        "out = {}\n"
        "for name in packages:\n"
        "    namespace = {}\n"
        "    exec(f'from {name} import *', namespace)\n"
        "    module = importlib.import_module(name)\n"
        "    out[name] = [list(module.__all__), sorted(set(module.__all__) - set(namespace))]\n"
        "print(json.dumps(out))\n"
    )
    for name in LAZY_PACKAGES:
        exported, unresolved = resolved[name]
        assert exported, name
        assert unresolved == [], name


def test_lazy_names_are_the_defining_modules_objects():
    import repro
    from repro.cluster.monitor import ShardedQoEMonitor
    from repro.net.block import PacketBlock

    assert repro.ShardedQoEMonitor is ShardedQoEMonitor
    assert repro.PacketBlock is PacketBlock
    assert "simulate_call" in dir(repro)
    with pytest.raises(AttributeError, match="not_an_export"):
        repro.not_an_export
