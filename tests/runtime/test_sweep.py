"""Grid semantics of the sweep engine (:func:`resilient_sweep`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.runtime.jobs import (
    CHUNKS_PER_WORKER,
    COMPLETED_COUNTER,
    SHARDS_COUNTER,
    WORKERS_GAUGE,
    ResilienceConfig,
    ResilientSweepRunner,
    resilient_sweep,
)
from repro.telemetry import Telemetry

#: Zeroed retry backoff, so failing sweeps do not sleep.
FAST = dict(backoff_base_s=0.0, backoff_cap_s=0.0)


def _draw(point, rng: np.random.Generator):
    """Module-level trial fn (workers pickle it by reference)."""
    return (point, float(rng.random()))


def _sum_noise(point, rng: np.random.Generator):
    return float(point) + float(np.sum(rng.standard_normal(64)))


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResilientSweepRunner(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResilientSweepRunner(chunk_size=0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            resilient_sweep(_draw, [1], trials=0)

    def test_empty_grid_returns_empty(self):
        assert resilient_sweep(_draw, []) == []


class TestSerialPath:
    def test_shape_is_points_by_trials(self):
        out = resilient_sweep(_draw, ["a", "b", "c"], trials=4)
        assert len(out) == 3
        assert all(len(group) == 4 for group in out)

    def test_results_grouped_by_point_in_order(self):
        out = resilient_sweep(_draw, [10, 20], trials=3)
        assert [r[0] for r in out[0]] == [10, 10, 10]
        assert [r[0] for r in out[1]] == [20, 20, 20]

    def test_seeding_discipline_is_flat_grid_position(self):
        # Trial (p, t) must draw from default_rng(seed_root + p*trials + t).
        out = resilient_sweep(_draw, ["x", "y"], trials=2, seed_root=100)
        expected = [float(np.random.default_rng(100 + i).random())
                    for i in range(4)]
        got = [r[1] for group in out for r in group]
        assert got == expected


class TestParallelPath:
    def test_parallel_is_byte_identical_to_serial(self):
        serial = resilient_sweep(_sum_noise, [0.0, 1.0, 2.0], trials=5,
                                 seed_root=7)
        parallel = resilient_sweep(_sum_noise, [0.0, 1.0, 2.0], trials=5,
                                   seed_root=7, workers=4)
        assert parallel == serial  # exact float equality, exact ordering

    def test_parallel_independent_of_chunk_size(self):
        serial = resilient_sweep(_sum_noise, [0.0, 1.0], trials=6,
                                 seed_root=3)
        for size in (1, 2, 5, 100):
            assert resilient_sweep(_sum_noise, [0.0, 1.0], trials=6,
                                   seed_root=3, workers=3,
                                   chunk_size=size) == serial

    def test_trial_exception_propagates(self):
        # A trial that raises on every attempt fails the sweep once its
        # shard's budget is spent; the trial's own error rides along as
        # the context of the typed crash error.
        with pytest.raises(WorkerCrashError) as excinfo:
            resilient_sweep(_divide, [0], trials=1, workers=2,
                            config=ResilienceConfig(**FAST))
        assert isinstance(excinfo.value.__context__, ZeroDivisionError)

    def test_worker_death_raises_typed_crash_error(self):
        # A worker dying mid-shard on every attempt (segfault/OOM-kill
        # model) must not surface as a bare BrokenProcessPool: the typed
        # error names the lost shard's trial indices.
        with pytest.raises(WorkerCrashError) as excinfo:
            resilient_sweep(_die, list(range(8)), trials=1, workers=2,
                            chunk_size=2, config=ResilienceConfig(**FAST))
        assert excinfo.value.trial_indices  # non-empty, sorted grid indices
        assert list(excinfo.value.trial_indices) \
            == sorted(excinfo.value.trial_indices)


def _divide(point, rng):
    return 1 / point


def _die(point, rng):
    import os

    os._exit(137)


class TestTelemetry:
    def test_counters_fold_into_attached_registry(self):
        telemetry = Telemetry()
        resilient_sweep(_draw, [1, 2, 3], trials=4, workers=2, chunk_size=3,
                        telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"][SHARDS_COUNTER] == 4
        assert snapshot["counters"][COMPLETED_COUNTER] == 4
        assert snapshot["gauges"][WORKERS_GAUGE] == 2

    def test_derived_chunking_bounds_ipc(self):
        telemetry = Telemetry()
        # 64 tasks over 2 workers: default sharding must submit far
        # fewer than 64 shards (CHUNKS_PER_WORKER slack per worker).
        resilient_sweep(_draw, list(range(16)), trials=4, workers=2,
                        telemetry=telemetry)
        shards = telemetry.metrics.snapshot()["counters"][SHARDS_COUNTER]
        assert shards <= 2 * CHUNKS_PER_WORKER + 1
