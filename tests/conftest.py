"""Settings every test shares: the call-count fixture, a process environment
without FRAMELIFT_SEED and one Hypothesis profile."""

import pytest
from hypothesis import settings

from budget import calls  # noqa: F401  (the fixture, for every test module)

# reproducible examples, no deadline on the slower kernels and no example database
settings.register_profile("framelift", derandomize=True, deadline=None, database=None)
settings.load_profile("framelift")


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    """A test that wants FRAMELIFT_SEED sets it with ``monkeypatch``."""
    monkeypatch.delenv("FRAMELIFT_SEED", raising=False)
