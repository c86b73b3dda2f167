"""Kernel perf benchmarks (CI perf-smoke job).

Measures the fused/batched :mod:`repro.kernels` datapath against a
faithful replica of the seed model — the four-pass ``np.correlate``
streaming correlator and the per-frame trial loop it powered — and
enforces the speedups on top of byte-identity:

* **fused streaming metric** — the windowed GEMM kernel vs the
  seed's four correlation passes on large noise chunks, floor
  ``MIN_FUSED_SPEEDUP``;
* **batched trial engine** — the trial engine running a full Fig. 6
  (full-frame long preamble) trial, one kernel call over every
  frame's in-frame rows, vs the seed streaming loop over the same
  frames, floor ``MIN_BATCHED_SPEEDUP``.

Identity is asserted unconditionally; every record lands in
``BENCH_kernels.json`` at the repository root (a CI artifact).

Both sides of both gates run on one BLAS thread
(:func:`repro.runtime.blas.one_blas_thread`), the count every sweep
trial runs under.  With the host's default two threads on two cores
the fused GEMM's time depended on how the second thread was scheduled:
the fused gate read 0.68x, 1.04x, 0.71x and 12.2x in four runs, and a
262,144-sample metric took 8.0 ms in 6 of 8 fresh processes against
3.3-3.8 ms on one thread.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.coeffs import wifi_long_preamble_template
from repro.experiments.detection import (
    _CurveTrialSpec,
    _xcorr_trial,
    threshold_for_false_alarm_rate,
)
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.runtime.blas import one_blas_thread
from tests.experiments.oracles import count_frames_looped

#: Wall-clock floor for the fused metric vs the seed's four passes.
MIN_FUSED_SPEEDUP = 2.0

#: Wall-clock floor for the batched trial vs the seed streaming loop.
MIN_BATCHED_SPEEDUP = 3.0

#: Fig. 6 workload: full WiFi frames, the paper's headline curve.
TRIAL_FRAMES = 100
TRIAL_SNR_DB = 0.0
TRIAL_SEED = 20140818


class _SeedCorrelator:
    """The seed model's correlator datapath, kept verbatim as the
    benchmark baseline (four ``np.correlate`` passes per chunk over an
    int64 [history | chunk] window)."""

    def __init__(self, coeffs_i, coeffs_q, threshold):
        self._coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
        self._coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
        self._threshold = int(threshold)
        history = self._coeffs_i.size - 1
        self._history_i = np.zeros(history, dtype=np.int64)
        self._history_q = np.zeros(history, dtype=np.int64)

    def metric(self, samples):
        samples = np.asarray(samples)
        sign_i = np.where(np.real(samples) < 0, -1, 1).astype(np.int64)
        sign_q = np.where(np.imag(samples) < 0, -1, 1).astype(np.int64)
        full_i = np.concatenate([self._history_i, sign_i])
        full_q = np.concatenate([self._history_q, sign_q])
        corr_re = (np.correlate(full_i, self._coeffs_i, mode="valid")
                   + np.correlate(full_q, self._coeffs_q, mode="valid"))
        corr_im = (np.correlate(full_q, self._coeffs_i, mode="valid")
                   - np.correlate(full_i, self._coeffs_q, mode="valid"))
        self._history_i = full_i[samples.size:]
        self._history_q = full_q[samples.size:]
        return corr_re ** 2 + corr_im ** 2

    def process(self, samples):
        return self.metric(samples) > self._threshold


def _paper_bank():
    ci, cq = quantize_coefficients(wifi_long_preamble_template())
    threshold = threshold_for_false_alarm_rate(ci, cq, 0.083)
    return ci, cq, threshold


def _best_of(repeats, fn):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        result = fn()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.mark.perf
def test_bench_fused_metric_vs_seed(kernels_record):
    ci, cq, threshold = _paper_bank()
    rng = np.random.default_rng(11)
    chunks = [awgn(1 << 15, 1.0, rng) for _ in range(8)]

    def run_seed():
        seed = _SeedCorrelator(ci, cq, threshold)
        return [seed.metric(chunk) for chunk in chunks]

    def run_fused():
        fused = CrossCorrelator(ci, cq, threshold=threshold)
        return [fused.metric(chunk) for chunk in chunks]

    with one_blas_thread() as blas_threads:
        run_seed(), run_fused()  # warm allocators and BLAS
        seed_ns, seed_out = _best_of(3, run_seed)
        fused_ns, fused_out = _best_of(3, run_fused)

    for expected, (got,) in zip(seed_out, fused_out):
        np.testing.assert_array_equal(got, expected)

    speedup = seed_ns / fused_ns
    samples = sum(chunk.size for chunk in chunks)
    print(f"\nKernels — fused metric ({samples} samples): "
          f"seed {seed_ns / 1e6:.1f} ms, fused {fused_ns / 1e6:.1f} ms "
          f"-> {speedup:.2f}x")
    kernels_record["fused_metric_vs_seed"] = {
        "samples": samples,
        "seed_ns": seed_ns,
        "fused_ns": fused_ns,
        "speedup": speedup,
        "byte_identical": True,
        "min_speedup": MIN_FUSED_SPEEDUP,
        "blas_threads": blas_threads,
    }
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"fused metric is only {speedup:.2f}x faster than the seed "
        f"four-pass path (floor {MIN_FUSED_SPEEDUP}x)"
    )


@pytest.mark.perf
def test_bench_batched_trial_vs_seed_loop(kernels_record):
    ci, cq, threshold = _paper_bank()
    spec = _CurveTrialSpec(frame_kind="full", snr_db=TRIAL_SNR_DB,
                           n_frames=TRIAL_FRAMES, frame_seed=TRIAL_SEED,
                           coeffs_i=ci, coeffs_q=cq, threshold=threshold)

    def run_seed_loop():
        seed = _SeedCorrelator(ci, cq, threshold)
        return count_frames_looped(spec, seed.process,
                                   np.random.default_rng(TRIAL_SEED))

    def run_batched():
        return _xcorr_trial(spec, np.random.default_rng(TRIAL_SEED))

    with one_blas_thread() as blas_threads:
        run_seed_loop(), run_batched()  # warm the frame-arrival cache
        seed_ns, seed_counts = _best_of(5, run_seed_loop)
        batched_ns, batched_counts = _best_of(5, run_batched)

    assert batched_counts == seed_counts, \
        "batched trial must reproduce the seed loop's counts exactly"

    speedup = seed_ns / batched_ns
    print(f"\nKernels — Fig. 6 trial ({TRIAL_FRAMES} full frames): "
          f"seed loop {seed_ns / 1e6:.1f} ms, "
          f"batched {batched_ns / 1e6:.1f} ms -> {speedup:.2f}x")
    kernels_record["batched_trial_vs_seed_loop"] = {
        "n_frames": TRIAL_FRAMES,
        "snr_db": TRIAL_SNR_DB,
        "seed_ns": seed_ns,
        "batched_ns": batched_ns,
        "speedup": speedup,
        "counts": list(batched_counts),
        "identical_counts": True,
        "min_speedup": MIN_BATCHED_SPEEDUP,
        "blas_threads": blas_threads,
    }
    assert speedup >= MIN_BATCHED_SPEEDUP, (
        f"batched trial is only {speedup:.2f}x faster than the seed "
        f"streaming loop (floor {MIN_BATCHED_SPEEDUP}x)"
    )
