"""The sweep engine: supervised, checkpointed, resumable trial grids.

The evaluation sweeps — detection probability over SNR (Figs. 6-8),
iperf statistics over SIR (Figs. 10-11) — are grids of independent
trials, and the paper's campaigns (10,000-frame detection curves,
personality x SIR iperf grids) are long-running measurement jobs that
must survive flaky hosts.  :func:`resilient_sweep` runs such a grid
serially or over a supervised process pool:

* **Determinism.**  Every trial gets its own generator,
  ``numpy.random.default_rng(seed_root + trial_index)``, where the
  trial index is the task's position in the flattened
  ``points x trials`` grid (:func:`build_tasks`).  Seeds depend only
  on grid position, never on scheduling, so ``workers=N`` is
  byte-identical to the serial ``workers=1`` path, and a re-executed
  shard reproduces its results bit-for-bit.
* **Shards.**  The flattened grid is split into content-addressed
  shards — the unit of scheduling, retry, and checkpointing.  Shard
  keys are derived exactly like :func:`repro.runtime.cache.cache_key`
  artifacts, so a re-submitted or interrupted sweep recognizes its own
  completed work.
* **Checkpoints.**  With a :class:`ShardCheckpoint` journal attached,
  every completed shard's results are appended durably (JSONL, one
  fsynced line per shard, payload guarded by a SHA-256 digest).  A
  killed sweep re-run against the same journal replays completed
  shards from disk and executes only the remainder.  Corrupted or
  truncated journal entries are skipped and recomputed, never trusted.
* **Supervision.**  :class:`WorkerSupervisor` detects worker crashes
  (``BrokenProcessPool``) and hangs (per-shard deadlines checked
  against submission heartbeat timestamps), rebuilds the pool, and
  requeues the affected shards with seeded exponential backoff under a
  bounded per-shard attempt budget.  A shard that exhausts its budget
  fails the sweep with :class:`~repro.errors.WorkerCrashError` — a
  curve with holes is not a result.  A config with a positive
  ``quarantine_limit`` instead **quarantines** up to that many poison
  shards, reported in :class:`SweepHealth` with their trials left as
  ``None``.
* **Backpressure.**  At most ``workers * MAX_INFLIGHT_PER_WORKER``
  shards are submitted at a time, so a million-trial sweep never
  serializes its whole grid into the pool's call queue at once.

A sweep that survives injected worker kills, or is killed and resumed,
returns **byte-identical** results to the uninterrupted serial run —
the chaos benchmarks (``benchmarks/test_bench_resilience.py``) assert
exactly that.

Trial functions must be module-level callables (the pool pickles them
by reference) and should be pure functions of ``(point, rng)``.
Chaos testing hooks into :class:`repro.faults.workers.WorkerFaultInjector`:
pass one as ``fault_injector`` and its seeded kill/hang/slow plan is
enacted inside the workers.

This module is the repo's one pool-policy choke point: repro-lint
RJ008 flags ``ProcessPoolExecutor``/``multiprocessing`` construction
anywhere else under ``src/``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, WorkerCrashError
from repro.runtime.blas import one_blas_thread
from repro.runtime.cache import cache_key

if TYPE_CHECKING:  # one-way dependencies: runtime never imports these
    from repro.faults.workers import WorkerFaultInjector
    from repro.telemetry.session import Telemetry

#: Metric names folded into an attached MetricsRegistry after each run.
RUNS_COUNTER = "runtime.jobs.runs"
SHARDS_COUNTER = "runtime.jobs.shards"
COMPLETED_COUNTER = "runtime.jobs.completed_shards"
RETRIES_COUNTER = "runtime.jobs.retries"
CRASHES_COUNTER = "runtime.jobs.crashes"
HANGS_COUNTER = "runtime.jobs.hangs"
QUARANTINED_COUNTER = "runtime.jobs.quarantined"
CHECKPOINT_HITS_COUNTER = "runtime.jobs.checkpoint_hits"
WORKERS_GAUGE = "runtime.jobs.workers"

#: Shards per worker when no explicit chunk size is given — enough
#: slack for load balancing, few enough for cheap IPC.
CHUNKS_PER_WORKER = 4

#: Backpressure bound: at most ``workers * MAX_INFLIGHT_PER_WORKER``
#: shards are inside the pool at once.
MAX_INFLIGHT_PER_WORKER = 2

#: Seed-sequence domain tag for the backoff jitter substream (pacing
#: only — never touches trial RNGs, so results stay byte-identical).
_BACKOFF_DOMAIN = 0x4A0B

#: Poll granularity of the supervisor loop when it cannot block
#: indefinitely (backoff timers or shard deadlines are pending).
_POLL_S = 0.05


@dataclass(frozen=True)
class _Task:
    """One (point, trial) cell of the flattened sweep grid."""

    index: int
    point: Any
    seed: int


def build_tasks(points: Sequence[Any], trials: int,
                seed_root: int) -> list[_Task]:
    """Flatten a ``points x trials`` grid into seeded tasks.

    This is the one place the seeding discipline is written down:
    trial ``(p, t)`` draws from ``default_rng(seed_root + p*trials +
    t)``, whichever process runs it and however often.
    """
    return [
        _Task(index=point_index * trials + trial,
              point=point,
              seed=seed_root + point_index * trials + trial)
        for point_index, point in enumerate(points)
        for trial in range(trials)
    ]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits warm caches), else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/quarantine/checkpoint policy for one resilient sweep.

    Attributes:
        max_attempts: Per-shard execution budget (first try included).
        backoff_base_s: First-retry backoff delay; successive retries
            double it (seeded jitter in [0.5, 1.5) is applied so a
            crashed fleet does not stampede back in lockstep).
        backoff_cap_s: Upper bound the exponential backoff saturates
            at, however many attempts a shard has burned.
        shard_deadline_s: Hang detector: a shard whose heartbeat
            (submission timestamp) is older than this is declared hung
            and its pool recycled.  ``None`` disables hang detection.
        quarantine_limit: How many shards may be quarantined before
            the sweep fails with :class:`~repro.errors.WorkerCrashError`.
            The default ``0`` makes any exhausted shard abort — partial
            results are useless to a curve; ``None`` means unlimited
            (never fail the sweep).
        checkpoint_path: Durable journal path; ``None`` disables
            checkpointing.  An existing journal's completed shards are
            replayed, not re-executed.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    shard_deadline_s: float | None = None
    quarantine_limit: int | None = 0
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0.0 or self.backoff_cap_s < 0.0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff_cap_s must be >= backoff_base_s")
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ConfigurationError("shard_deadline_s must be positive")
        if self.quarantine_limit is not None and self.quarantine_limit < 0:
            raise ConfigurationError("quarantine_limit must be >= 0 or None")


@dataclass
class SweepHealth:
    """Aggregated outcome report of one resilient sweep.

    ``shard_attempts`` maps shard index -> executions launched, for
    every shard that needed more than one (or never succeeded);
    healthy single-shot shards are omitted to keep the report small.
    ``blas_threads`` is the BLAS thread count every trial ran under
    (``1``), or ``None`` where no OpenBLAS thread setter was found and
    the count was left alone (see :mod:`repro.runtime.blas`).
    """

    total_shards: int = 0
    total_tasks: int = 0
    completed_shards: int = 0
    completed_tasks: int = 0
    checkpoint_hits: int = 0
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    quarantined: list[int] = field(default_factory=list)
    shard_attempts: dict[int, int] = field(default_factory=dict)
    checkpoint_corrupt_entries: int = 0
    elapsed_s: float = 0.0
    blas_threads: int | None = None

    @property
    def ok(self) -> bool:
        """Whether every shard completed (from a worker or the journal)."""
        return not self.quarantined \
            and self.completed_shards == self.total_shards

    def to_dict(self) -> dict:
        """Plain-dict form for perf records and telemetry dumps."""
        return {
            "total_shards": self.total_shards,
            "total_tasks": self.total_tasks,
            "completed_shards": self.completed_shards,
            "completed_tasks": self.completed_tasks,
            "checkpoint_hits": self.checkpoint_hits,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "quarantined": sorted(self.quarantined),
            "shard_attempts": {str(k): v
                               for k, v in sorted(self.shard_attempts.items())},
            "checkpoint_corrupt_entries": self.checkpoint_corrupt_entries,
            "elapsed_s": self.elapsed_s,
            "blas_threads": self.blas_threads,
            "ok": self.ok,
        }

    def summary(self) -> str:
        """Console-friendly multi-line digest."""
        lines = [
            f"shards        : {self.completed_shards}/{self.total_shards} "
            f"completed ({self.checkpoint_hits} from checkpoint)",
            f"tasks         : {self.completed_tasks}/{self.total_tasks}",
            f"retries       : {self.retries}  "
            f"crashes: {self.crashes}  hangs: {self.hangs}",
            f"quarantined   : "
            + (", ".join(map(str, sorted(self.quarantined))) or "(none)"),
            f"elapsed       : {self.elapsed_s:.2f} s",
            f"blas threads  : {self.blas_threads or 'unchanged'}",
        ]
        if self.shard_attempts:
            worst = max(self.shard_attempts.values())
            lines.append(f"max attempts  : {worst} "
                         f"(on {len(self.shard_attempts)} retried shards)")
        if self.checkpoint_corrupt_entries:
            lines.append(f"journal       : "
                         f"{self.checkpoint_corrupt_entries} corrupt "
                         "entries skipped and recomputed")
        return "\n".join(lines)


@dataclass
class _Shard:
    """One schedulable unit: a contiguous slice of the task grid."""

    index: int
    tasks: list[_Task]
    key: str | None = None
    #: Failed executions so far (a successful run makes attempts+1 total).
    attempts: int = 0
    #: Heartbeat: monotonic timestamp of the last submission.
    submitted_at: float = 0.0
    #: Earliest monotonic time the next attempt may be submitted.
    eligible_at: float = 0.0

    @property
    def trial_indices(self) -> tuple[int, ...]:
        return tuple(task.index for task in self.tasks)


def shard_key(fn: Callable, tasks: Sequence[_Task]) -> str:
    """Content address of one shard of a sweep.

    Derived like :func:`repro.runtime.cache.cache_key` — the trial
    function's fully-qualified name plus every task's grid index,
    seed, and point.  Points the canonical tokenizer cannot encode
    (arbitrary objects) fall back to their pickle bytes, which is
    stable for the value-object points the experiments use.
    """
    identity = (fn.__module__, fn.__qualname__,
                [(task.index, task.seed, task.point) for task in tasks])
    try:
        return cache_key("repro.runtime.jobs/shard", identity)
    except ConfigurationError:
        payload = pickle.dumps(identity, protocol=4)
        return hashlib.sha256(b"repro.runtime.jobs/shard-pickle\x00"
                              + payload).hexdigest()


def _run_shard(fn: Callable[[Any, np.random.Generator], Any],
               tasks: Sequence[_Task], shard_index: int, attempt: int,
               injector: "WorkerFaultInjector | None", in_worker: bool
               ) -> list[tuple[int, Any]]:
    """Execute one shard's tasks, results indexed by grid position.

    Runs in a pool worker, or in-process on the serial path
    (``in_worker=False``), where an injected KILL raises
    :class:`~repro.errors.WorkerCrashError` instead of exiting.
    """
    if injector is not None:
        injector.apply(shard_index, attempt, in_worker=in_worker)
    return [(task.index, fn(task.point, np.random.default_rng(task.seed)))
            for task in tasks]


# ---------------------------------------------------------------------------
# Durable checkpoint journal


class ShardCheckpoint:
    """Append-only JSONL journal of completed shards.

    One line per completed shard: shard key, trial indices, attempts,
    and the pickled result rows (base64) guarded by a SHA-256 digest.
    Loading tolerates torn writes — a truncated or corrupted trailing
    line (the signature of a sweep killed mid-append) is counted in
    :attr:`corrupt_entries` and skipped, so a bad entry costs one
    recompute, never a poisoned resume.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.corrupt_entries = 0
        self._entries: dict[str, list[tuple[int, Any]]] = {}
        if self.path.exists():
            self._load()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="ascii")
        except OSError as exc:
            raise CheckpointError(
                f"cannot open checkpoint journal {self.path}: {exc}"
            ) from exc

    # -- loading -------------------------------------------------------

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="ascii", errors="replace")
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint journal {self.path}: {exc}"
            ) from exc
        for line in text.splitlines():
            if not line.strip():
                continue
            parsed = self._parse(line)
            if parsed is None:
                self.corrupt_entries += 1
            else:
                key, rows = parsed
                self._entries[key] = rows

    @staticmethod
    def _parse(line: str) -> tuple[str, list[tuple[int, Any]]] | None:
        """One journal line -> (key, rows), or None if it cannot be trusted."""
        try:
            obj = json.loads(line)
            key = obj["key"]
            payload = base64.b64decode(obj["payload"].encode("ascii"),
                                       validate=True)
            if hashlib.sha256(payload).hexdigest() != obj["sha256"]:
                return None
            rows = [(int(index), value)
                    for index, value in pickle.loads(payload)]
            if [row[0] for row in rows] != [int(i) for i in obj["indices"]]:
                return None
            return str(key), rows
        except Exception:
            return None

    # -- writing -------------------------------------------------------

    def record(self, key: str, shard_index: int, attempts: int,
               rows: list[tuple[int, Any]]) -> None:
        """Durably append one completed shard (flush + fsync)."""
        payload = pickle.dumps(rows, protocol=4)
        line = json.dumps({
            "key": key,
            "shard": int(shard_index),
            "indices": [int(row[0]) for row in rows],
            "attempts": int(attempts),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": base64.b64encode(payload).decode("ascii"),
        }, sort_keys=True)
        try:
            self._file.write(line + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint journal {self.path}: {exc}"
            ) from exc
        self._entries[key] = rows

    # -- queries -------------------------------------------------------

    def get(self, key: str) -> list[tuple[int, Any]] | None:
        """The recorded rows for ``key``, or None if never completed."""
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def close(self) -> None:
        """Close the journal file handle (entries stay queryable)."""
        self._file.close()

    def __enter__(self) -> "ShardCheckpoint":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Supervision


class WorkerSupervisor:
    """Supervised shard execution: crash/hang detection, retry, backoff.

    Owns the pool lifecycle.  A ``BrokenProcessPool`` (worker killed)
    or a missed shard deadline (worker hung) recycles the pool and
    requeues the affected shards; the shard that triggered the event
    is charged an attempt, in-flight bystanders are requeued free of
    charge.  Attempt budgets and quarantine come from the
    :class:`ResilienceConfig`; every event is tallied into the run's
    :class:`SweepHealth`.
    """

    def __init__(self, workers: int, config: ResilienceConfig,
                 seed_root: int = 0,
                 fault_injector: "WorkerFaultInjector | None" = None) -> None:
        self.workers = int(workers)
        self.config = config
        self.seed_root = int(seed_root)
        self.fault_injector = fault_injector

    # -- shared retry bookkeeping --------------------------------------

    def _backoff_s(self, shard: _Shard) -> float:
        """Seeded exponential backoff with jitter, capped.

        Pure function of ``(seed_root, shard.index, shard.attempts)``
        — deterministic pacing that never touches the trial RNGs.
        """
        cfg = self.config
        rng = np.random.default_rng(
            [self.seed_root, _BACKOFF_DOMAIN, shard.index, shard.attempts])
        delay = cfg.backoff_base_s * (2.0 ** max(0, shard.attempts - 1))
        return min(cfg.backoff_cap_s, delay) * (0.5 + rng.random())

    def _note_failure(self, shard: _Shard, health: SweepHealth,
                      requeue: Callable[[_Shard], None],
                      crash: bool = False, hang: bool = False) -> None:
        """Charge a failed attempt; requeue with backoff or quarantine."""
        shard.attempts += 1
        health.shard_attempts[shard.index] = shard.attempts
        if crash:
            health.crashes += 1
        if hang:
            health.hangs += 1
        if shard.attempts < self.config.max_attempts:
            health.retries += 1
            shard.eligible_at = time.monotonic() + self._backoff_s(shard)
            requeue(shard)
            return
        limit = self.config.quarantine_limit
        if limit is not None and len(health.quarantined) >= limit:
            raise WorkerCrashError(
                f"shard {shard.index} failed {shard.attempts} times "
                f"(budget {self.config.max_attempts}) and the quarantine "
                f"limit ({limit}) is exhausted; trial indices "
                f"{list(shard.trial_indices)} are unrecoverable",
                trial_indices=shard.trial_indices)
        health.quarantined.append(shard.index)

    # -- serial reference path -----------------------------------------

    def run_serial(self, fn: Callable[[Any, np.random.Generator], Any],
                   shards: Iterable[_Shard], health: SweepHealth,
                   on_done: Callable[[_Shard, list[tuple[int, Any]]], None]
                   ) -> None:
        """In-process execution with the same retry/quarantine policy.

        Injected KILL faults surface as
        :class:`~repro.errors.WorkerCrashError` raised by the injector
        (the process is spared) so the retry path is exercised without
        a pool.
        """
        queue = deque(shards)
        while queue:
            shard = queue.popleft()
            wait_s = shard.eligible_at - time.monotonic()
            if wait_s > 0:
                time.sleep(wait_s)
            shard.submitted_at = time.monotonic()
            try:
                rows = _run_shard(fn, shard.tasks, shard.index,
                                  shard.attempts, self.fault_injector,
                                  in_worker=False)
            except Exception as exc:
                crash = isinstance(exc, WorkerCrashError)
                if not crash and not self._retryable(exc):
                    raise
                self._note_failure(shard, health, queue.append, crash=crash)
                continue
            on_done(shard, rows)

    @staticmethod
    def _retryable(exc: Exception) -> bool:
        """Whether a serial in-process failure is worth retrying.

        Configuration mistakes fail identically every attempt; retrying
        them only delays the traceback.  Everything else (transient I/O,
        injected crashes, flaky native code) gets the retry budget.
        """
        return not isinstance(exc, ConfigurationError)

    # -- supervised pool path ------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        """The one pool constructor.

        Workers are forked inside the sweep's ``one_blas_thread()``
        block, so each starts on the one BLAS thread it inherits.
        """
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=_pool_context())

    def _recycle_pool(self, pool: ProcessPoolExecutor
                      ) -> ProcessPoolExecutor:
        """Tear a broken/hung pool down hard and stand up a fresh one.

        Hung workers do not react to a polite shutdown, so any worker
        process still alive is terminated first; with the children
        dead the executor's shutdown returns promptly.
        """
        for process in list(getattr(pool, "_processes", {}).values() or []):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
        return self._new_pool()

    def run_pooled(self, fn: Callable[[Any, np.random.Generator], Any],
                   shards: Iterable[_Shard], health: SweepHealth,
                   on_done: Callable[[_Shard, list[tuple[int, Any]]], None]
                   ) -> None:
        """Fan shards over a supervised pool until all complete."""
        cfg = self.config
        queue: deque[_Shard] = deque(shards)
        max_inflight = self.workers * MAX_INFLIGHT_PER_WORKER
        pool = self._new_pool()
        pending: dict[Future, _Shard] = {}
        try:
            while queue or pending:
                self._submit_ready(fn, pool, queue, pending, max_inflight)
                if not pending:
                    # Everything runnable is backing off; nap until the
                    # soonest shard becomes eligible again.
                    soonest = min(shard.eligible_at for shard in queue)
                    time.sleep(min(max(soonest - time.monotonic(), 0.0),
                                   _POLL_S))
                    continue
                timeout = None if not queue and cfg.shard_deadline_s is None \
                    else _POLL_S
                finished, _ = wait(set(pending), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                pool_broken = False
                for future in finished:
                    shard = pending.pop(future)
                    try:
                        rows = future.result()
                    except BrokenProcessPool:
                        # The pool died under this shard (or it was in
                        # flight when a sibling died — every in-flight
                        # future fails at once, and the true victim
                        # cannot be told apart).  Charge them all.
                        pool_broken = True
                        self._note_failure(shard, health, queue.append,
                                           crash=True)
                    except Exception as exc:
                        if not self._retryable(exc):
                            raise
                        self._note_failure(shard, health, queue.append)
                    else:
                        on_done(shard, rows)
                if pool_broken:
                    self._requeue_victims(pending, queue)
                    pool = self._recycle_pool(pool)
                    continue
                hung = self._hung_shards(pending)
                if hung:
                    # A hung worker cannot be cancelled individually:
                    # recycle the whole pool, charging only the shards
                    # that actually missed their deadline.
                    for future in hung:
                        shard = pending.pop(future)
                        self._note_failure(shard, health, queue.append,
                                           hang=True)
                    self._requeue_victims(pending, queue)
                    pool = self._recycle_pool(pool)
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def _submit_ready(self, fn: Callable[[Any, np.random.Generator], Any],
                      pool: ProcessPoolExecutor,
                      queue: deque[_Shard], pending: dict[Future, _Shard],
                      max_inflight: int) -> None:
        """Submit eligible shards up to the backpressure bound."""
        now = time.monotonic()
        for _ in range(len(queue)):
            if len(pending) >= max_inflight:
                return
            shard = queue.popleft()
            if shard.eligible_at > now:
                queue.append(shard)  # still backing off; rotate past it
                continue
            shard.submitted_at = now
            future = pool.submit(_run_shard, fn, shard.tasks, shard.index,
                                 shard.attempts, self.fault_injector,
                                 in_worker=True)
            pending[future] = shard

    def _hung_shards(self, pending: dict[Future, _Shard]) -> list[Future]:
        """Futures whose shard heartbeat has outlived the deadline."""
        deadline = self.config.shard_deadline_s
        if deadline is None:
            return []
        now = time.monotonic()
        return [future for future, shard in pending.items()
                if now - shard.submitted_at > deadline]

    @staticmethod
    def _requeue_victims(pending: dict[Future, _Shard],
                         queue: deque[_Shard]) -> None:
        """Return in-flight bystanders to the queue without penalty."""
        for shard in pending.values():
            queue.append(shard)
        pending.clear()


# ---------------------------------------------------------------------------
# The runner


class ResilientSweepRunner:
    """Checkpointed, supervised, crash-resumable sweep execution.

    Attributes:
        workers: Pool size; ``1`` runs serially in-process, the
            reference the pooled path matches byte-for-byte.
        seed_root: Base of the per-trial seeding discipline.
        chunk_size: Tasks per shard; ``None`` derives one from the grid
            size and worker count.
        telemetry: Optional :class:`repro.telemetry.session.Telemetry`
            bundle; when given, the ``runtime.jobs.*`` counters and the
            worker gauge are folded into its metrics registry.
        config: Retry/quarantine/checkpoint policy; ``None`` is the
            strict default :class:`ResilienceConfig`.
        fault_injector: Optional chaos-testing fault plan.
    """

    def __init__(self, workers: int = 1, seed_root: int = 0,
                 chunk_size: int | None = None,
                 telemetry: "Telemetry | None" = None,
                 config: ResilienceConfig | None = None,
                 fault_injector: "WorkerFaultInjector | None" = None) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.workers = int(workers)
        self.seed_root = int(seed_root)
        self.chunk_size = chunk_size
        self.telemetry = telemetry
        self.config = config if config is not None else ResilienceConfig()
        self.fault_injector = fault_injector
        #: The last run's health report (None before the first run).
        self.health: SweepHealth | None = None

    # ------------------------------------------------------------------

    def _shards(self, tasks: list[_Task]) -> list[_Shard]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(tasks)
                                    / (self.workers * CHUNKS_PER_WORKER)))
        return [_Shard(index=shard_index, tasks=tasks[offset:offset + size])
                for shard_index, offset
                in enumerate(range(0, len(tasks), size))]

    def _record(self, health: SweepHealth) -> None:
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.counter(RUNS_COUNTER).inc()
        metrics.counter(SHARDS_COUNTER).inc(health.total_shards)
        metrics.counter(COMPLETED_COUNTER).inc(health.completed_shards)
        metrics.counter(RETRIES_COUNTER).inc(health.retries)
        metrics.counter(CRASHES_COUNTER).inc(health.crashes)
        metrics.counter(HANGS_COUNTER).inc(health.hangs)
        metrics.counter(QUARANTINED_COUNTER).inc(len(health.quarantined))
        metrics.counter(CHECKPOINT_HITS_COUNTER).inc(health.checkpoint_hits)
        metrics.gauge(WORKERS_GAUGE).set(self.workers)
        metrics.histogram("runtime.jobs.run_seconds",
                          bounds=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
                          ).observe(health.elapsed_s)

    def sweep(self, fn: Callable[[Any, np.random.Generator], Any],
              points: Iterable[Any], trials: int = 1) -> list[list[Any]]:
        """Run ``fn(point, rng)`` for every (point, trial) cell.

        Returns one list per point holding its ``trials`` results in
        trial order, the same for any ``workers`` count.  A shard that
        exhausts its attempt budget raises
        :class:`~repro.errors.WorkerCrashError`, unless the config
        permits quarantine: quarantined shards leave ``None`` in their
        cells; check :attr:`health`.

        Every trial runs on one BLAS thread, serial or pooled: this
        process is capped for the run (the pool's lifetime included) and
        gets its own thread counts back on every exit.  So no trial's
        float reduction depends on ``workers``, and pool workers do not
        fight each other's BLAS threads for the cores.
        """
        if trials < 1:
            raise ConfigurationError("trials must be >= 1")
        start = time.perf_counter()
        point_list = list(points)
        tasks = build_tasks(point_list, trials, self.seed_root)
        shards = self._shards(tasks)
        health = SweepHealth(total_shards=len(shards),
                             total_tasks=len(tasks))
        global _LAST_HEALTH
        self.health = health
        _LAST_HEALTH = health
        results: list[Any] = [None] * len(tasks)
        if not tasks:
            health.elapsed_s = time.perf_counter() - start
            self._record(health)
            return []

        checkpoint: ShardCheckpoint | None = None
        try:
            if self.config.checkpoint_path is not None:
                checkpoint = ShardCheckpoint(self.config.checkpoint_path)
                health.checkpoint_corrupt_entries = checkpoint.corrupt_entries
            todo = self._replay_checkpoint(fn, shards, checkpoint, results,
                                           health)

            def on_done(shard: _Shard,
                        rows: list[tuple[int, Any]]) -> None:
                self._complete(shard, rows, results, checkpoint, health)

            supervisor = WorkerSupervisor(self.workers, self.config,
                                          seed_root=self.seed_root,
                                          fault_injector=self.fault_injector)
            with one_blas_thread() as health.blas_threads:
                if self.workers == 1:
                    supervisor.run_serial(fn, todo, health, on_done)
                else:
                    supervisor.run_pooled(fn, todo, health, on_done)
        finally:
            if checkpoint is not None:
                checkpoint.close()
            health.elapsed_s = time.perf_counter() - start
            self._record(health)
        return [results[p * trials:(p + 1) * trials]
                for p in range(len(point_list))]

    def _replay_checkpoint(self, fn: Callable,
                           shards: list[_Shard],
                           checkpoint: ShardCheckpoint | None,
                           results: list[Any],
                           health: SweepHealth) -> list[_Shard]:
        """Fill results from the journal; return the shards still to run."""
        if checkpoint is None:
            return shards
        todo: list[_Shard] = []
        for shard in shards:
            shard.key = shard_key(fn, shard.tasks)
            rows = checkpoint.get(shard.key)
            if rows is None or [row[0] for row in rows] \
                    != list(shard.trial_indices):
                todo.append(shard)
                continue
            for index, value in rows:
                results[index] = value
            health.checkpoint_hits += 1
            health.completed_shards += 1
            health.completed_tasks += len(rows)
        return todo

    def _complete(self, shard: _Shard, rows: list[tuple[int, Any]],
                  results: list[Any], checkpoint: ShardCheckpoint | None,
                  health: SweepHealth) -> None:
        for index, value in rows:
            results[index] = value
        health.completed_shards += 1
        health.completed_tasks += len(rows)
        if shard.attempts:
            health.shard_attempts[shard.index] = shard.attempts + 1
        if checkpoint is not None:
            checkpoint.record(shard.key, shard.index, shard.attempts + 1,
                              rows)


def resilient_sweep(fn: Callable[[Any, np.random.Generator], Any],
                    points: Iterable[Any], trials: int = 1,
                    workers: int = 1, seed_root: int = 0,
                    chunk_size: int | None = None,
                    telemetry: "Telemetry | None" = None,
                    config: ResilienceConfig | None = None,
                    fault_injector: "WorkerFaultInjector | None" = None
                    ) -> list[list[Any]]:
    """Run ``fn(point, rng)`` for every (point, trial) cell.

    One-shot wrapper around :class:`ResilientSweepRunner`; the run's
    health report is kept for :func:`last_sweep_health`.
    """
    runner = ResilientSweepRunner(workers=workers, seed_root=seed_root,
                                  chunk_size=chunk_size, telemetry=telemetry,
                                  config=config,
                                  fault_injector=fault_injector)
    return runner.sweep(fn, points, trials)


#: The most recent sweep's health report in this process, kept for
#: status views (the console's ``sweep status``).  Overwritten at the
#: start of every run, so a concurrent observer sees live counters.
_LAST_HEALTH: SweepHealth | None = None


def last_sweep_health() -> SweepHealth | None:
    """The health report of the most recent sweep in this process.

    ``None`` until the first :class:`ResilientSweepRunner` run starts.
    """
    return _LAST_HEALTH


__all__ = [
    "ResilienceConfig",
    "ResilientSweepRunner",
    "ShardCheckpoint",
    "SweepHealth",
    "WorkerSupervisor",
    "last_sweep_health",
    "resilient_sweep",
    "shard_key",
]
