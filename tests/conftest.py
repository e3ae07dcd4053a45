"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.exec.executor import shutdown_executors


@pytest.fixture(scope="session", autouse=True)
def _release_executor_pools():
    """Tear down spec-cached executor pools after the test session.

    Without this, every ``"threads:N"`` / ``"processes-persistent:N"``
    spec touched by a test keeps its worker pool alive until
    interpreter exit.
    """
    yield
    shutdown_executors()


@pytest.fixture
def rng():
    """A deterministic generator; tests must not rely on global state."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
