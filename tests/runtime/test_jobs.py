"""Tests for the fault-tolerant job layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigurationError, WorkerCrashError
from repro.faults.workers import WorkerFaultInjector, WorkerFaultPlan
from repro.runtime.jobs import (
    CHECKPOINT_HITS_COUNTER,
    CRASHES_COUNTER,
    RETRIES_COUNTER,
    RUNS_COUNTER,
    ResilienceConfig,
    ResilientSweepRunner,
    ShardCheckpoint,
    SweepHealth,
    WorkerSupervisor,
    build_tasks,
    last_sweep_health,
    resilient_sweep,
    shard_key,
)
from repro.telemetry import Telemetry

#: A fast retry policy so injected-failure tests don't sleep.
FAST = dict(backoff_base_s=0.0, backoff_cap_s=0.0)


def _sum_noise(point, rng: np.random.Generator):
    """Module-level trial fn (workers pickle it by reference)."""
    return float(point) + float(np.sum(rng.standard_normal(64)))


def _reference(fn, points, trials, seed_root):
    """The seeding rule written out: trial (i, t) of the grid draws
    from ``default_rng(seed_root + i*trials + t)``."""
    return [[fn(p, np.random.default_rng(seed_root + i * trials + t))
             for t in range(trials)]
            for i, p in enumerate(points)]


def _boom(point, rng):
    raise ValueError("always fails")


def _misconfigured(point, rng):
    raise ConfigurationError("wrong on every attempt")


class _Opaque:
    """A point type the canonical key tokenizer cannot encode."""

    def __init__(self, tag: int) -> None:
        self.tag = tag


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backoff_base_s=-1.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backoff_base_s=1.0, backoff_cap_s=0.5)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(shard_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(quarantine_limit=-1)

    def test_runner_bounds(self):
        with pytest.raises(ConfigurationError):
            ResilientSweepRunner(workers=0)
        with pytest.raises(ConfigurationError):
            ResilientSweepRunner(chunk_size=0)
        with pytest.raises(ConfigurationError):
            resilient_sweep(_sum_noise, [1.0], trials=0)

    def test_empty_grid(self):
        assert resilient_sweep(_sum_noise, []) == []


class TestIdentity:
    def test_serial_matches_plain_sweep(self):
        reference = _reference(_sum_noise, [0.0, 1.0, 2.0], 5, 7)
        hardened = resilient_sweep(_sum_noise, [0.0, 1.0, 2.0], trials=5,
                                   seed_root=7)
        assert hardened == reference  # exact float equality

    def test_parallel_matches_plain_sweep(self):
        reference = _reference(_sum_noise, [0.0, 1.0, 2.0], 4, 3)
        hardened = resilient_sweep(_sum_noise, [0.0, 1.0, 2.0], trials=4,
                                   seed_root=3, workers=2)
        assert hardened == reference

    def test_identity_survives_injected_serial_kills(self):
        reference = _reference(_sum_noise, [0.0, 1.0], 4, 5)
        plan = WorkerFaultPlan(seed=1).kill_shards([0, 1])
        hardened = resilient_sweep(
            _sum_noise, [0.0, 1.0], trials=4, seed_root=5,
            config=ResilienceConfig(**FAST),
            fault_injector=WorkerFaultInjector(plan))
        health = last_sweep_health()
        assert health.crashes == 2
        assert health.retries == 2
        assert health.ok
        assert hardened == reference


class TestRetryAndQuarantine:
    def test_poison_shard_quarantined_when_budget_allows(self):
        # chunk_size=2 over 4 tasks -> shard 0 = tasks 0,1; shard 1 = 2,3.
        plan = WorkerFaultPlan(seed=0).kill_shards([0], attempts=None)
        runner = ResilientSweepRunner(
            chunk_size=2,
            config=ResilienceConfig(max_attempts=2, quarantine_limit=1,
                                    **FAST),
            fault_injector=WorkerFaultInjector(plan))
        out = runner.sweep(_sum_noise, [10.0, 20.0, 30.0, 40.0])
        assert [group[0] for group in out[:2]] == [None, None]
        assert all(group[0] is not None for group in out[2:])
        assert runner.health.quarantined == [0]
        assert runner.health.shard_attempts[0] == 2
        assert not runner.health.ok

    def test_exhausted_budget_with_zero_quarantine_raises(self):
        plan = WorkerFaultPlan(seed=0).kill_shards([1], attempts=None)
        runner = ResilientSweepRunner(
            chunk_size=2,
            config=ResilienceConfig(max_attempts=2, quarantine_limit=0,
                                    **FAST),
            fault_injector=WorkerFaultInjector(plan))
        with pytest.raises(WorkerCrashError) as excinfo:
            runner.sweep(_sum_noise, [1.0, 2.0, 3.0, 4.0])
        assert excinfo.value.trial_indices == (2, 3)

    def test_generic_exceptions_burn_the_retry_budget(self):
        runner = ResilientSweepRunner(
            config=ResilienceConfig(max_attempts=3, quarantine_limit=None,
                                    **FAST))
        out = runner.sweep(_boom, [1.0])
        assert out == [[None]]
        assert runner.health.shard_attempts[0] == 3
        assert runner.health.retries == 2

    def test_configuration_errors_are_not_retried(self):
        runner = ResilientSweepRunner(config=ResilienceConfig(**FAST))
        with pytest.raises(ConfigurationError):
            runner.sweep(_misconfigured, [1.0])
        assert runner.health.retries == 0


class TestBackoff:
    def test_backoff_is_deterministic_and_capped(self):
        sup = WorkerSupervisor(
            workers=1, seed_root=9,
            config=ResilienceConfig(backoff_base_s=0.1, backoff_cap_s=0.3))
        tasks = build_tasks([1.0], 1, 0)
        for attempts in range(1, 8):
            from repro.runtime.jobs import _Shard

            shard = _Shard(index=4, tasks=tasks, attempts=attempts)
            first = sup._backoff_s(shard)
            again = sup._backoff_s(shard)
            assert first == again  # pure in (seed_root, index, attempts)
            assert 0.0 <= first <= 0.3 * 1.5  # cap * max jitter

    def test_jitter_varies_across_shards(self):
        sup = WorkerSupervisor(
            workers=1, seed_root=9,
            config=ResilienceConfig(backoff_base_s=0.1, backoff_cap_s=10.0))
        from repro.runtime.jobs import _Shard

        tasks = build_tasks([1.0], 1, 0)
        delays = {sup._backoff_s(_Shard(index=i, tasks=tasks, attempts=1))
                  for i in range(8)}
        assert len(delays) > 1


class TestCheckpoint:
    def test_second_run_replays_everything_from_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        config = ResilienceConfig(checkpoint_path=journal, **FAST)
        first = resilient_sweep(_sum_noise, [0.0, 1.0], trials=4,
                                seed_root=11, chunk_size=2, config=config)
        cold = last_sweep_health()
        assert cold.checkpoint_hits == 0

        second = resilient_sweep(_sum_noise, [0.0, 1.0], trials=4,
                                 seed_root=11, chunk_size=2, config=config)
        warm = last_sweep_health()
        assert warm.checkpoint_hits == warm.total_shards == 4
        assert warm.ok
        assert second == first

    def test_different_grid_misses_the_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        config = ResilienceConfig(checkpoint_path=journal, **FAST)
        resilient_sweep(_sum_noise, [0.0], trials=2, seed_root=1,
                        config=config)
        resilient_sweep(_sum_noise, [99.0], trials=2, seed_root=1,
                        config=config)
        assert last_sweep_health().checkpoint_hits == 0

    def test_corrupt_tail_line_is_skipped_not_trusted(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        config = ResilienceConfig(checkpoint_path=journal, **FAST)
        resilient_sweep(_sum_noise, [0.0, 1.0], trials=2, seed_root=2,
                        chunk_size=2, config=config)
        # Simulate a torn write: truncate the last journal line mid-payload.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n")
        reference = _reference(_sum_noise, [0.0, 1.0], 2, 2)
        resumed = resilient_sweep(_sum_noise, [0.0, 1.0], trials=2,
                                  seed_root=2, chunk_size=2, config=config)
        health = last_sweep_health()
        assert health.checkpoint_corrupt_entries == 1
        assert health.checkpoint_hits == 1  # only the intact shard replays
        assert resumed == reference

    def test_unwritable_journal_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            ShardCheckpoint(tmp_path)  # a directory, not a file

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        rows = [(0, ("x", 1.5)), (1, ("y", -2.0))]
        with ShardCheckpoint(path) as journal:
            journal.record("k1", 0, 1, rows)
        reloaded = ShardCheckpoint(path)
        assert reloaded.get("k1") == rows
        assert "k1" in reloaded
        assert len(reloaded) == 1
        assert reloaded.corrupt_entries == 0
        reloaded.close()


class TestShardKey:
    def test_stable_and_sensitive(self):
        tasks = build_tasks([1.0, 2.0], 2, 7)
        assert shard_key(_sum_noise, tasks) == shard_key(_sum_noise, tasks)
        assert shard_key(_boom, tasks) != shard_key(_sum_noise, tasks)
        other = build_tasks([1.0, 2.0], 2, 8)  # different seeds
        assert shard_key(_sum_noise, other) != shard_key(_sum_noise, tasks)

    def test_journal_key_is_pinned(self):
        # A journal written before any refactor must still replay: the
        # key of a real experiment shard may never drift.
        from repro.experiments.detection import _xcorr_trial

        tasks = build_tasks([1.0, 2.0], 2, 7)
        assert shard_key(_xcorr_trial, tasks) == (
            "380f98108f4c666dcffc4f48ff1e16c8"
            "a759176a6562c2f203ecfda19f806d18")

    def test_pickle_fallback_for_opaque_points(self):
        tasks = build_tasks([_Opaque(1)], 1, 0)
        key = shard_key(_sum_noise, tasks)
        assert key == shard_key(_sum_noise, tasks)
        assert key != shard_key(_sum_noise, build_tasks([_Opaque(2)], 1, 0))


class TestHealthAndTelemetry:
    def test_health_summary_mentions_the_counts(self):
        health = SweepHealth(total_shards=4, total_tasks=8,
                             completed_shards=3, completed_tasks=6,
                             checkpoint_hits=1, retries=2, crashes=1,
                             quarantined=[3], shard_attempts={3: 3},
                             checkpoint_corrupt_entries=1)
        text = health.summary()
        assert "3/4" in text
        assert "crashes: 1" in text
        assert "corrupt" in text
        assert not health.ok
        assert health.to_dict()["quarantined"] == [3]

    def test_metrics_folded_into_registry(self):
        telemetry = Telemetry()
        plan = WorkerFaultPlan(seed=1).kill_shards([0])
        resilient_sweep(_sum_noise, [0.0, 1.0], trials=2, seed_root=4,
                        chunk_size=2, telemetry=telemetry,
                        config=ResilienceConfig(**FAST),
                        fault_injector=WorkerFaultInjector(plan))
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters[RUNS_COUNTER] == 1
        assert counters[CRASHES_COUNTER] == 1
        assert counters[RETRIES_COUNTER] == 1
        assert counters.get(CHECKPOINT_HITS_COUNTER, 0) == 0


class TestPooledSupervision:
    def test_real_worker_kill_recovers_byte_identical(self):
        reference = _reference(_sum_noise, [0.0, 1.0, 2.0], 4, 13)
        plan = WorkerFaultPlan(seed=3).kill_shards([0])
        hardened = resilient_sweep(
            _sum_noise, [0.0, 1.0, 2.0], trials=4, seed_root=13, workers=2,
            config=ResilienceConfig(max_attempts=3, quarantine_limit=0,
                                    **FAST),
            fault_injector=WorkerFaultInjector(plan))
        health = last_sweep_health()
        assert health.crashes >= 1  # the kill, plus any collateral
        assert health.ok
        assert hardened == reference

    def test_hung_worker_detected_and_shard_retried(self):
        reference = _reference(_sum_noise, [0.0, 1.0], 2, 17)
        plan = WorkerFaultPlan(seed=5).hang_workers(
            1.0, duration_s=20.0, shard_indices=[0])
        hardened = resilient_sweep(
            _sum_noise, [0.0, 1.0], trials=2, seed_root=17, workers=2,
            chunk_size=2,
            config=ResilienceConfig(shard_deadline_s=0.4, quarantine_limit=0,
                                    **FAST),
            fault_injector=WorkerFaultInjector(plan))
        health = last_sweep_health()
        assert health.hangs >= 1
        assert health.ok
        assert hardened == reference


class TestStrictDefault:
    def test_strict_policy_never_quarantines(self):
        assert ResilienceConfig().quarantine_limit == 0

    def test_always_failing_trial_fails_the_sweep(self):
        with pytest.raises(WorkerCrashError) as excinfo:
            resilient_sweep(_boom, [1.0], config=ResilienceConfig(**FAST))
        assert excinfo.value.trial_indices == (0,)
        assert last_sweep_health().shard_attempts[0] == 3
