"""Runtime perf benchmarks (CI perf-smoke job).

Two guarantees of :mod:`repro.runtime` are enforced here rather than
in tier-1:

* **parallel sweep speedup** — a 4-worker Fig. 6 detection sweep must
  return byte-identical curve values to the serial path, and finish
  at least ``MIN_SPEEDUP`` times faster in wall-clock terms.  With
  fewer than 4 usable cores the speedup gate cannot be judged: the
  record carries ``speedup_enforced: false`` and a ``skip_reason``,
  and the test reports itself skipped with that reason;
* **two workers pay** — on a larger Fig. 6 grid, ``workers=2`` must
  be byte-identical to serial and at least ``MIN_PAIR_SPEEDUP`` times
  faster by the median of interleaved (serial, pool) pairs.  This is
  the gate a 2-core host can judge; with fewer usable cores it skips
  with its reason;
* **warm artifact cache** — rebuilding the PPDU / preamble-template /
  quantized-coefficient artifacts with a warm cache must be at least
  ``MIN_CACHE_SPEEDUP`` times faster than the cold build, with
  hit/miss counters exposed through the telemetry metrics registry.

Everything measured lands in ``BENCH_runtime.json`` at the repository
root (uploaded as a CI artifact).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.coeffs import (
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.experiments.detection import long_preamble_curve
from repro.hw.cross_correlator import quantize_coefficients
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.runtime.cache import DEFAULT_CACHE
from repro.telemetry import Telemetry

#: The Fig. 6 grid the speedup is measured on (single-long pseudo
#: frames: the cheapest per-frame work, i.e. the hardest speedup case
#: after the paper's own curve).
SNRS_DB = [-6.0, -3.0, 0.0, 3.0]
N_FRAMES = 1000
SWEEP_WORKERS = 4

#: Wall-clock floor for the 4-worker sweep vs the serial reference.
MIN_SPEEDUP = 2.5

#: Wall-clock floor for warm-vs-cold artifact builds.
MIN_CACHE_SPEEDUP = 10.0

#: The ``workers=2`` gate: the same SNRs at 4000 frames a point (about
#: 0.5 s serial on two cores), timed in interleaved pairs.
PAIR_FRAMES = 4000
PAIR_WORKERS = 2
PAIRS = 5

#: Floor on the median per-pair ``serial / pool`` wall-time ratio.
MIN_PAIR_SPEEDUP = 1.2

_USABLE_CORES = len(os.sched_getaffinity(0))


def _fig6(workers: int, n_frames: int = N_FRAMES):
    return long_preamble_curve(SNRS_DB, n_frames=n_frames,
                               full_frames=False, workers=workers)


def _timed_fig6(workers: int) -> int:
    start = time.perf_counter_ns()
    _fig6(workers, PAIR_FRAMES)
    return time.perf_counter_ns() - start


@pytest.mark.perf
def test_bench_runtime_sweep_speedup(runtime_record):
    # Warm the artifact cache so both paths measure sweep work, not
    # first-build work (the fork start method shares the warm cache
    # with every worker).
    _fig6(workers=1)

    start = time.perf_counter_ns()
    serial = _fig6(workers=1)
    serial_ns = time.perf_counter_ns() - start

    start = time.perf_counter_ns()
    parallel = _fig6(workers=SWEEP_WORKERS)
    parallel_ns = time.perf_counter_ns() - start

    assert parallel == serial, \
        "parallel sweep must be byte-identical to the serial reference"

    speedup = serial_ns / parallel_ns
    print(f"\nRuntime — Fig. 6 sweep: serial {serial_ns / 1e6:.0f} ms, "
          f"{SWEEP_WORKERS} workers {parallel_ns / 1e6:.0f} ms "
          f"-> {speedup:.2f}x ({_USABLE_CORES} usable cores)")
    enforced = _USABLE_CORES >= SWEEP_WORKERS
    record = runtime_record["sweep_speedup"] = {
        "snrs_db": SNRS_DB,
        "n_frames": N_FRAMES,
        "workers": SWEEP_WORKERS,
        "usable_cores": _USABLE_CORES,
        "serial_ns": serial_ns,
        "parallel_ns": parallel_ns,
        "speedup": speedup,
        "byte_identical": True,
        "min_speedup": MIN_SPEEDUP,
        "speedup_enforced": enforced,
    }
    if not enforced:
        record["skip_reason"] = (
            f"speedup gate needs {SWEEP_WORKERS} usable cores, this host "
            f"has {_USABLE_CORES} (byte-identity was still asserted)")
        pytest.skip(record["skip_reason"])
    assert speedup >= MIN_SPEEDUP, (
        f"{SWEEP_WORKERS}-worker sweep is only {speedup:.2f}x faster "
        f"(floor {MIN_SPEEDUP}x)"
    )


@pytest.mark.perf
def test_bench_runtime_two_workers_pay(runtime_record):
    """``workers=2`` beats the serial sweep on two cores.

    Every trial runs on one BLAS thread (``repro.runtime.blas``), so
    the two workers no longer fight each other's second BLAS thread
    for the cores; before that cap the pool was the slower side
    (pairs read 0.55-0.99x, medians 0.63-0.81x).  An untimed pass of
    each side checks identity first and warms the caches and the
    fork.  The pairs alternate which side runs first, and the median
    ratio, not any single pair, is held to the floor.
    """
    serial = _fig6(1, PAIR_FRAMES)
    pooled = _fig6(PAIR_WORKERS, PAIR_FRAMES)
    assert pooled == serial, \
        "workers=2 sweep must be byte-identical to the serial reference"
    record = runtime_record["two_worker_speedup"] = {
        "snrs_db": SNRS_DB,
        "n_frames": PAIR_FRAMES,
        "workers": PAIR_WORKERS,
        "usable_cores": _USABLE_CORES,
        "byte_identical": True,
        "min_speedup": MIN_PAIR_SPEEDUP,
    }
    if _USABLE_CORES < PAIR_WORKERS:
        record["skip_reason"] = (
            f"two-worker gate needs {PAIR_WORKERS} usable cores, this "
            f"host has {_USABLE_CORES} (byte-identity was still asserted)")
        pytest.skip(record["skip_reason"])

    serial_ns, pool_ns, ratios = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            pool_ns.append(_timed_fig6(PAIR_WORKERS))
            serial_ns.append(_timed_fig6(1))
        else:
            serial_ns.append(_timed_fig6(1))
            pool_ns.append(_timed_fig6(PAIR_WORKERS))
        ratios.append(serial_ns[-1] / pool_ns[-1])
    speedup = float(np.median(ratios))
    print(f"\nRuntime — Fig. 6 sweep, {PAIR_WORKERS} workers: pair ratios "
          + ", ".join(f"{ratio:.2f}" for ratio in ratios)
          + f" -> median {speedup:.2f}x")
    record.update(pairs=PAIRS, serial_ns=serial_ns, pool_ns=pool_ns,
                  ratios=ratios, speedup=speedup)
    assert speedup >= MIN_PAIR_SPEEDUP, (
        f"{PAIR_WORKERS}-worker sweep is only {speedup:.2f}x faster by the "
        f"median pair (floor {MIN_PAIR_SPEEDUP}x; ratios {ratios})"
    )


def _build_artifacts() -> int:
    """One full artifact-build pass; returns a consumption checksum."""
    rng = np.random.default_rng(7)
    psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
    ppdu = build_ppdu(psdu, WifiFrameConfig())
    long_template = wifi_long_preamble_template()
    short_template = wifi_short_preamble_template()
    ci, cq = quantize_coefficients(long_template)
    return ppdu.size + long_template.size + short_template.size \
        + ci.size + cq.size


@pytest.mark.perf
def test_bench_runtime_cache_warm_vs_cold(runtime_record):
    telemetry = Telemetry()
    DEFAULT_CACHE.attach_metrics(telemetry.metrics)
    try:
        DEFAULT_CACHE.clear()
        hits0, misses0 = DEFAULT_CACHE.hits, DEFAULT_CACHE.misses

        start = time.perf_counter_ns()
        checksum_cold = _build_artifacts()
        cold_ns = time.perf_counter_ns() - start
        misses = DEFAULT_CACHE.misses - misses0

        warm_ns = min(_timed_build(checksum_cold) for _ in range(5))
        hits = DEFAULT_CACHE.hits - hits0
        snapshot = telemetry.metrics.snapshot()["counters"]
    finally:
        DEFAULT_CACHE.attach_metrics(None)

    speedup = cold_ns / warm_ns
    print(f"\nRuntime — artifact cache: cold {cold_ns / 1e6:.2f} ms, "
          f"warm {warm_ns / 1e6:.3f} ms -> {speedup:.0f}x "
          f"({hits} hits / {misses} misses)")
    runtime_record["cache_warm_vs_cold"] = {
        "cold_ns": cold_ns,
        "warm_ns": warm_ns,
        "speedup": speedup,
        "min_speedup": MIN_CACHE_SPEEDUP,
        "hits": hits,
        "misses": misses,
        "telemetry_counters": {
            name: value for name, value in snapshot.items()
            if name.startswith("runtime.cache.")
        },
    }
    assert hits > 0 and misses > 0
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"warm cache is only {speedup:.1f}x faster than cold "
        f"(floor {MIN_CACHE_SPEEDUP}x)"
    )


def _timed_build(expected_checksum: int) -> int:
    start = time.perf_counter_ns()
    checksum = _build_artifacts()
    elapsed = time.perf_counter_ns() - start
    assert checksum == expected_checksum
    return elapsed
