"""Shared fixtures for the benchmark/experiment harness.

Each ``benchmarks/test_*.py`` file regenerates one of the paper's tables or
figures, named after it (``test_fig3_*`` is Figure 3).  The datasets are simulated
once per pytest session at a reduced scale (minutes, not the paper's weeks of
collection); the *shape* of each result -- method ordering, over/under
estimation, trends across swept parameters -- is what is being reproduced.

Every benchmark writes its rendered table/figure to
``benchmarks/results/<name>.txt`` and prints it, so ``pytest benchmarks/
--benchmark-only`` leaves a readable artefact per experiment.  The artefacts
are deterministic (a run rewrites them byte-identically), and nothing under
this directory asserts on wall-clock time: throughput, CPU, lag and memory
are measured by ``bench/`` (``python3 bench/run.py``, see ``bench/README.md``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.evaluation import EvaluationDataset
from repro.datasets.lab import LabDatasetConfig, build_lab_dataset
from repro.datasets.realworld import RealWorldConfig, build_real_world_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale of the benchmark datasets (kept small so the whole harness runs in
#: minutes; raise these to approach the paper's data volumes).
LAB_CALLS_PER_VCA = 6
LAB_CALL_DURATION_S = 25
REAL_WORLD_CALLS_PER_VCA = 6
N_ESTIMATORS = 15


def save_artifact(name: str, text: str) -> Path:
    """Write a rendered table/figure to the results directory and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n", file=sys.stderr)
    return path


@pytest.fixture(scope="session")
def lab_calls():
    """In-lab dataset: ``{vca: [CallResult, ...]}`` under NDT-driven conditions."""
    config = LabDatasetConfig(
        calls_per_vca=LAB_CALLS_PER_VCA, call_duration_s=LAB_CALL_DURATION_S, seed=7
    )
    return build_lab_dataset(config)


@pytest.fixture(scope="session")
def real_world_calls():
    """Real-world dataset: ``{vca: [CallResult, ...]}`` from the household models."""
    config = RealWorldConfig(calls_per_vca=REAL_WORLD_CALLS_PER_VCA, seed=23)
    return build_real_world_dataset(config)


@pytest.fixture(scope="session")
def lab_datasets(lab_calls):
    """Per-VCA window-level evaluation datasets built from the in-lab calls."""
    return {vca: EvaluationDataset.from_calls(calls) for vca, calls in lab_calls.items()}


@pytest.fixture(scope="session")
def real_world_datasets(real_world_calls):
    """Per-VCA window-level evaluation datasets built from the real-world calls."""
    return {vca: EvaluationDataset.from_calls(calls) for vca, calls in real_world_calls.items()}
