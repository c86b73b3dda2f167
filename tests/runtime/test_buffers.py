"""Tests for the grow-only scratch buffers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.buffers import PLAN_SLOTS, PlanCache, ScratchBuffer


class TestScratchBuffer:
    def test_view_has_requested_length_and_dtype(self):
        scratch = ScratchBuffer(np.int64)
        view = scratch.view(17)
        assert view.size == 17
        assert view.dtype == np.int64

    def test_grows_monotonically(self):
        scratch = ScratchBuffer(np.float64)
        scratch.view(8)
        assert scratch.capacity == 8
        assert scratch.grows == 1
        scratch.view(32)
        assert scratch.capacity == 32
        assert scratch.grows == 2
        # Shrinking requests never reallocate.
        scratch.view(4)
        scratch.view(32)
        assert scratch.capacity == 32
        assert scratch.grows == 2

    def test_steady_state_allocates_nothing(self):
        scratch = ScratchBuffer(np.float64)
        base = scratch.view(100)
        for _ in range(50):
            view = scratch.view(100)
            assert np.shares_memory(view, base)
        assert scratch.grows == 1

    def test_views_alias_storage(self):
        scratch = ScratchBuffer(np.int64)
        first = scratch.view(10)
        first[:] = 7
        second = scratch.view(5)
        assert np.all(second == 7)

    def test_zero_length_view(self):
        scratch = ScratchBuffer(np.complex128)
        assert scratch.view(0).size == 0
        assert scratch.grows == 0

    def test_negative_length_rejected(self):
        scratch = ScratchBuffer(np.int64)
        with pytest.raises(ConfigurationError):
            scratch.view(-1)


class TestPlanCache:
    @staticmethod
    def _cache():
        scratch = ScratchBuffer(np.float64)
        return PlanCache(scratch.view, scratch), scratch

    def test_a_length_is_planned_once(self):
        cache, _scratch = self._cache()
        first = cache.get(64)
        assert cache.get(64) is first
        assert cache.builds == 1

    def test_growth_drops_the_plans_over_the_old_storage(self):
        cache, scratch = self._cache()
        short = cache.get(64)
        cache.get(128)  # grows the scratch
        assert not np.shares_memory(short, scratch.view(64))
        assert np.shares_memory(cache.get(64), scratch.view(64))
        assert cache.builds == 3

    def test_the_oldest_plan_goes_first(self):
        cache, _scratch = self._cache()
        lengths = range(PLAN_SLOTS + 1, 0, -1)  # no growth after the first
        for n in lengths:
            cache.get(n)
        builds = cache.builds
        for n in list(lengths)[1:]:
            cache.get(n)
        assert cache.builds == builds
        cache.get(PLAN_SLOTS + 1)
        assert cache.builds == builds + 1
