"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 draws the same hypothesis examples on every machine and run:
# derandomized, with no example database.  HYPOTHESIS_PROFILE=randomized
# draws fresh examples instead (CI's randomized property step) and
# prints the blob that reproduces a failure.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomized", database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng2() -> np.random.Generator:
    """A second independent generator for two-stream tests."""
    return np.random.default_rng(0xBEEF)
