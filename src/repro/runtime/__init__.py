"""Execution runtime: parallel sweeps, artifact caching, buffer reuse.

The paper's evaluation is Monte-Carlo heavy — 10,000 frames per SNR
point for the detection curves, repeated iperf trials for the link
experiments — and the reproduction needs the same sweeps to finish in
benchmark time.  This package owns the three mechanisms that make
that possible without touching the science:

* :mod:`repro.runtime.jobs` — the sweep engine: trial grids with
  deterministic per-trial seeding (``workers=1`` is byte-identical to
  ``workers=N``), split into content-addressed shards, with a durable
  :class:`ShardCheckpoint` journal for crash-resumable sweeps, a
  :class:`WorkerSupervisor` with crash/hang detection and seeded
  retry/backoff, and a :class:`SweepHealth` report folded into
  telemetry;
* :mod:`repro.runtime.cache` — a content-addressed in-process cache
  for expensive deterministic artifacts (PPDUs, preambles, quantized
  coefficient banks, resampled templates);
* :mod:`repro.runtime.buffers` — grow-only scratch buffers the
  streaming hot path reuses across chunks instead of reallocating,
  and the per-chunk-length plans of views into them;
* :mod:`repro.runtime.blas` — the one-BLAS-thread cap every sweep
  trial runs under, serial or pooled.

Pool policy lives here and only here: repro-lint rule RJ008 flags any
other module constructing ``ProcessPoolExecutor`` / ``multiprocessing``
primitives directly, the same single-choke-point discipline RJ006
applies to the register bus.
"""

from __future__ import annotations

from repro.runtime.buffers import PlanCache, ScratchBuffer
from repro.runtime.cache import (
    DEFAULT_CACHE,
    ArtifactCache,
    cache_key,
    cached_artifact,
    freeze_artifact,
)
from repro.runtime.jobs import (
    ResilienceConfig,
    ResilientSweepRunner,
    ShardCheckpoint,
    SweepHealth,
    WorkerSupervisor,
    last_sweep_health,
    resilient_sweep,
    shard_key,
)

__all__ = [
    "ArtifactCache",
    "DEFAULT_CACHE",
    "PlanCache",
    "ResilienceConfig",
    "ResilientSweepRunner",
    "ScratchBuffer",
    "ShardCheckpoint",
    "SweepHealth",
    "WorkerSupervisor",
    "cache_key",
    "cached_artifact",
    "freeze_artifact",
    "last_sweep_health",
    "resilient_sweep",
    "shard_key",
]
