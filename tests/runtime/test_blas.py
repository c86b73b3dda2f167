"""The sweep BLAS policy: every trial on one thread, counts restored."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.experiments.detection  # noqa: F401  # repro-lint: disable=RJ015 (maps scipy's OpenBLAS too)
from repro.errors import WorkerCrashError
from repro.runtime import blas
from repro.runtime.jobs import (
    ResilienceConfig,
    _pool_context,
    last_sweep_health,
    resilient_sweep,
)

_LIBRARIES = blas.blas_libraries()

needs_setter = pytest.mark.skipif(
    not _LIBRARIES, reason="no OpenBLAS thread setter in this process")


def _real_threads() -> list[int]:
    """Every copy's count, read past any monkeypatch of the helper."""
    return [library.get_threads() for library in _LIBRARIES]


def _report_threads(point, rng: np.random.Generator) -> list[int]:
    """Trial fn: the BLAS thread counts it runs under."""
    return _real_threads()


def _report_os_threads(point, rng: np.random.Generator
                       ) -> tuple[int, list[int]]:
    """Trial fn: the process's OS threads and its BLAS thread counts."""
    return len(os.listdir("/proc/self/task")), _real_threads()


def _fail(point, rng: np.random.Generator) -> None:
    raise RuntimeError("trial failed")


@pytest.fixture
def two_threads():
    """Start the caller at two threads per copy; put its counts back."""
    saved = _real_threads()
    for library in _LIBRARIES:
        library.set_threads(2)
    yield [2] * len(_LIBRARIES)
    for library, threads in zip(_LIBRARIES, saved):
        library.set_threads(threads)


@needs_setter
class TestOneBlasThread:
    def test_caps_then_restores(self, two_threads):
        with blas.one_blas_thread() as threads:
            assert threads == 1
            assert _real_threads() == [1] * len(_LIBRARIES)
        assert _real_threads() == two_threads

    def test_restores_after_an_exception(self, two_threads):
        with pytest.raises(KeyError):
            with blas.one_blas_thread():
                raise KeyError("boom")
        assert _real_threads() == two_threads


@needs_setter
class TestSweepPolicy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_trial_runs_on_one_thread(self, two_threads, workers):
        results = resilient_sweep(_report_threads, list(range(8)),
                                  workers=workers)
        assert results == [[[1] * len(_LIBRARIES)]] * 8
        assert _real_threads() == two_threads

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task to count OS threads")
    @pytest.mark.skipif(_pool_context().get_start_method() != "fork",
                        reason="pool workers are not forked here")
    def test_pool_workers_inherit_the_cap(self, two_threads):
        """A sweep's forked worker runs one OS thread at BLAS count 1.

        Calling a thread setter in a forked child would restart
        OpenBLAS's pool: one idle helper thread per copy.
        """
        results = resilient_sweep(_report_os_threads, list(range(4)),
                                  workers=2)
        assert results == [[(1, [1] * len(_LIBRARIES))]] * 4
        assert _real_threads() == two_threads

    def test_health_records_the_cap(self, two_threads):
        resilient_sweep(_report_threads, [0, 1], workers=1)
        health = last_sweep_health()
        assert health.blas_threads == 1
        assert health.to_dict()["blas_threads"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_after_a_failed_sweep(self, two_threads, workers):
        config = ResilienceConfig(max_attempts=1, backoff_base_s=0.0,
                                  backoff_cap_s=0.0)
        with pytest.raises(WorkerCrashError):
            resilient_sweep(_fail, [0, 1, 2], workers=workers,
                            config=config)
        assert _real_threads() == two_threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_setter_changes_nothing(self, monkeypatch, two_threads,
                                       workers):
        monkeypatch.setattr(blas, "blas_libraries", lambda: ())
        results = resilient_sweep(_report_threads, list(range(4)),
                                  workers=workers)
        assert results == [[two_threads]] * 4
        assert last_sweep_health().blas_threads is None
        assert _real_threads() == two_threads
