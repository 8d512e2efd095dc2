"""Shared fixtures.

Heavy artefacts (simulated calls, small datasets) are session-scoped so the
whole suite pays the simulation cost once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netem.conditions import ConditionSchedule, NetworkCondition
from repro.webrtc.session import CallResult, SessionConfig, simulate_call


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _make_call(vca: str, seed: int, duration_s: int = 20, loss: float = 0.0, jitter_ms: float = 3.0) -> CallResult:
    schedule = ConditionSchedule.constant(
        NetworkCondition(throughput_kbps=2500.0, delay_ms=40.0, jitter_ms=jitter_ms, loss_rate=loss),
        duration_s,
    )
    config = SessionConfig(vca=vca, duration_s=duration_s, seed=seed, call_id=f"{vca}-fixture-{seed}")
    return simulate_call(config, schedule)


@pytest.fixture(scope="session")
def teams_call() -> CallResult:
    """A clean 20-second Teams call under good network conditions."""
    return _make_call("teams", seed=1)


@pytest.fixture(scope="session")
def meet_call() -> CallResult:
    """A clean 20-second Meet call under good network conditions."""
    return _make_call("meet", seed=2)


@pytest.fixture(scope="session")
def webex_call() -> CallResult:
    """A clean 20-second Webex call under good network conditions."""
    return _make_call("webex", seed=3)


@pytest.fixture(scope="session")
def lossy_teams_call() -> CallResult:
    """A Teams call under 5% loss and jitter (stress conditions)."""
    return _make_call("teams", seed=4, loss=0.05, jitter_ms=15.0)


@pytest.fixture(scope="session")
def lossy_meet_call() -> CallResult:
    """A Meet call under 5% loss and jitter (stress conditions)."""
    return _make_call("meet", seed=5, loss=0.05, jitter_ms=15.0)


@pytest.fixture(scope="session")
def lossy_webex_call() -> CallResult:
    """A Webex call under 5% loss and jitter (stress conditions)."""
    return _make_call("webex", seed=6, loss=0.05, jitter_ms=15.0)


@pytest.fixture(scope="session")
def teams_calls_small() -> list[CallResult]:
    """Four short Teams calls under varied conditions (for ML training tests)."""
    calls = []
    for seed, (throughput, loss) in enumerate(
        [(3000.0, 0.0), (1200.0, 0.0), (600.0, 0.01), (2000.0, 0.02)]
    ):
        schedule = ConditionSchedule.constant(
            NetworkCondition(throughput_kbps=throughput, delay_ms=40.0, jitter_ms=4.0, loss_rate=loss),
            18,
        )
        config = SessionConfig(
            vca="teams", duration_s=18, seed=100 + seed, call_id=f"teams-small-{seed}"
        )
        calls.append(simulate_call(config, schedule))
    return calls


@pytest.fixture(scope="session")
def regression_data() -> tuple[np.ndarray, np.ndarray]:
    """A synthetic regression problem with known structure (y depends on x0, x1)."""
    generator = np.random.default_rng(7)
    X = generator.uniform(-1.0, 1.0, size=(400, 5))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.1 * generator.normal(size=400)
    return X, y


@pytest.fixture(scope="session")
def classification_data() -> tuple[np.ndarray, np.ndarray]:
    """A synthetic 3-class problem separable on two features."""
    generator = np.random.default_rng(8)
    X = generator.uniform(0.0, 1.0, size=(450, 4))
    y = np.where(X[:, 0] + X[:, 1] < 0.7, "low", np.where(X[:, 0] + X[:, 1] < 1.3, "medium", "high"))
    return X, y
