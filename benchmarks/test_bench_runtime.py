"""Runtime perf benchmarks (CI perf-smoke job).

Two guarantees of :mod:`repro.runtime` are enforced here rather than
in tier-1:

* **parallel sweep speedup** — a 4-worker Fig. 6 detection sweep must
  return byte-identical curve values to the serial path, and finish
  at least ``MIN_SPEEDUP`` times faster in wall-clock terms.  With
  fewer than 4 usable cores the speedup gate cannot be judged: the
  record carries ``speedup_enforced: false`` and a ``skip_reason``,
  and the test reports itself skipped with that reason;
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

_USABLE_CORES = len(os.sched_getaffinity(0))


def _fig6(workers: int):
    return long_preamble_curve(SNRS_DB, n_frames=N_FRAMES,
                               full_frames=False, workers=workers)


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
