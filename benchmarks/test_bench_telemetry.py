"""Telemetry perf benchmarks (CI perf-smoke job).

Two guarantees are enforced here rather than in tier-1:

* **closed-loop Fig. 5** — a fully traced jammer run over a WiFi
  short-preamble capture must pass the latency-budget checker, and
  its trace/metrics digest is recorded to ``BENCH_telemetry.json``;
* **disabled-telemetry overhead** — running with
  ``Telemetry(enabled=False)`` must stay within 2% of running with no
  telemetry at all (the null-tracer probe points must be free).

A disabled bundle installs nothing, so both sides of the overhead gate
run the same per-chunk code and the gate measures what is left: the
bundle's per-run set-up and whatever the probe points cost.  It is
judged by the median of 11 interleaved pairs, alternating which side
goes first, on a capture long enough that one run takes at least
20 ms, with both sides on one BLAS thread (a 5-chunk run's correlator
calls could wait milliseconds on a second OpenBLAS thread).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import units
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.runtime.blas import one_blas_thread
from repro.telemetry import Telemetry

#: Injected WiFi frame starts (samples at 25 MSPS).
FRAME_STARTS = [2500, 15000, 27500]

#: Allowed slowdown of the disabled-telemetry path vs no telemetry.
MAX_DISABLED_OVERHEAD = 0.02

#: Interleaved (no telemetry, disabled) pairs the overhead gate times.
OVERHEAD_PAIRS = 11

#: Shortest run the overhead gate times, in milliseconds; the capture
#: repeats until one run with no telemetry takes at least this long.
MIN_RUN_MS = 20


def _wifi_capture() -> np.ndarray:
    from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
    from repro.phy.wifi.params import WIFI_SAMPLE_RATE

    rng = np.random.default_rng(99)
    noise = 1e-4
    power = units.db_to_linear(15.0) * noise
    psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
    frames = [Transmission(build_ppdu(psdu, WifiFrameConfig()),
                           WIFI_SAMPLE_RATE, start / units.BASEBAND_RATE,
                           power)
              for start in FRAME_STARTS]
    return mix_at_port(frames, units.BASEBAND_RATE, 1.6e-3,
                       noise_power=noise, rng=rng)


def _configured_jammer(telemetry: Telemetry | None) -> ReactiveJammer:
    jammer = ReactiveJammer(telemetry=telemetry)
    jammer.configure(
        detection=DetectionConfig(template=wifi_short_preamble_template(),
                                  xcorr_threshold=20000),
        events=JammingEventBuilder().on_correlation(),
        personality=reactive_jammer(1e-5),
    )
    return jammer


@pytest.mark.perf
def test_bench_telemetry_fig5(benchmark, telemetry_record):
    rx = _wifi_capture()

    def _run():
        telemetry = Telemetry()
        report = _configured_jammer(telemetry).run(rx, chunk_size=8192)
        return telemetry, report

    telemetry, report = benchmark.pedantic(_run, rounds=3, iterations=1)
    budget = telemetry.budget_report(signal_starts=FRAME_STARTS)

    print("\nTelemetry — traced Fig. 5 closed loop")
    print(budget.summary())
    assert budget.ok, budget.summary()
    assert len(report.jams) == len(FRAME_STARTS)

    snapshot = telemetry.metrics.snapshot()
    telemetry_record["fig5"] = {
        "events_retained": len(telemetry.events()),
        "budget_checks": [
            {"name": check.name, "measured_ns": check.measured_ns,
             "budget_ns": check.budget_ns, "ok": check.ok}
            for check in budget.checks
        ],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "host_histograms": {
            name: {"count": hist["count"], "mean_ns": hist["mean"]}
            for name, hist in snapshot["histograms"].items()
            if name.startswith("host.")
        },
    }


def _timed_run(jammer: ReactiveJammer, rx: np.ndarray) -> int:
    start = time.perf_counter_ns()
    jammer.run(rx, chunk_size=8192)
    return time.perf_counter_ns() - start


@pytest.mark.perf
def test_bench_telemetry_disabled_overhead(telemetry_record):
    baseline = _configured_jammer(None)
    disabled = _configured_jammer(Telemetry.disabled())
    with one_blas_thread() as blas_threads:
        # A 5-chunk run took a few milliseconds, short against the
        # host's scheduling noise: repeat the capture until one run
        # takes MIN_RUN_MS.
        rx = _wifi_capture()
        baseline.run(rx, chunk_size=8192)  # warm the code and buffers
        while _timed_run(baseline, rx) < MIN_RUN_MS * 1_000_000:
            rx = np.concatenate([rx, rx])
        disabled.run(rx, chunk_size=8192)
        baseline.run(rx, chunk_size=8192)

        ratios = []
        for pair in range(OVERHEAD_PAIRS):
            # Alternate which side goes first, so a drift in host load
            # favours neither.
            if pair % 2:
                disabled_ns = _timed_run(disabled, rx)
                baseline_ns = _timed_run(baseline, rx)
            else:
                baseline_ns = _timed_run(baseline, rx)
                disabled_ns = _timed_run(disabled, rx)
            ratios.append(disabled_ns / baseline_ns)

    # The two runs of a pair are adjacent in time, so background load
    # cancels within it, and the median pair is immune to a few noisy
    # pairs; aggregate minima or means are not.
    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    print(f"\nTelemetry — disabled-path overhead: {overhead * 100:+.2f}% "
          f"(median of {OVERHEAD_PAIRS} paired ratios, "
          f"{rx.size} samples per run)")
    telemetry_record["disabled_overhead"] = {
        "samples_per_run": int(rx.size),
        "blas_threads": blas_threads,
        "ratios": ratios,
        "overhead_fraction": overhead,
        "limit_fraction": MAX_DISABLED_OVERHEAD,
    }
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {overhead * 100:.2f}% "
        f"(limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
