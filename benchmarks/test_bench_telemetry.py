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
bundle's per-run set-up and whatever the probe points cost.  Each side
runs 11 passes, interleaved with the other side's and alternating which
goes first, over a capture long enough that one run takes at least
20 ms, on one BLAS thread (a 5-chunk run's correlator calls could wait
milliseconds on a second OpenBLAS thread).  The passes are folded as
the end-to-end harness folds them (``benchmarks/e2e/README.md``, "How
passes are folded"): each chunk counts with its fastest time and the
time between chunks with its fastest pass.  A neighbour on a shared
host slows whole runs, which swung single pair ratios from 0.72 to
1.65; a fold keeps each chunk's quiet moment, and work either side
does on every pass still shows in full.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.e2e.harness import OpLatency, _pass_times
from benchmarks.e2e.tracing import StageTracer
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

#: Interleaved passes of each side (no telemetry, disabled) the
#: overhead gate folds.
OVERHEAD_PASSES = 11

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


class _TimedJammer:
    """A jammer whose chunks are timed pass by pass
    (``UsrpN210.process`` calls, as the end-to-end harness times
    them)."""

    def __init__(self, telemetry: Telemetry | None) -> None:
        self.jammer = _configured_jammer(telemetry)
        timer = StageTracer()
        timer.wrap(self.jammer.device, "process", "chunk",
                   keep_durations=True)
        self.latency = OpLatency(timer.stages["chunk"].durations_ns)
        self.pass_ns: list[int] = []

    def run(self, rx: np.ndarray, timed: bool = True) -> int:
        """One pass over ``rx``; its wall time, kept if ``timed``."""
        start = time.perf_counter_ns()
        self.jammer.run(rx, chunk_size=8192)
        elapsed = time.perf_counter_ns() - start
        self.latency.end_pass(keep=timed)
        if timed:
            self.pass_ns.append(elapsed)
        return elapsed

    def folded_ms(self) -> float:
        """The pass time folded from the fastest chunks and gaps."""
        pass_s, _chunks_us = _pass_times(self.pass_ns, self.latency)
        return pass_s * 1e3


@pytest.mark.perf
def test_bench_telemetry_disabled_overhead(telemetry_record):
    baseline = _TimedJammer(None)
    disabled = _TimedJammer(Telemetry.disabled())
    with one_blas_thread() as blas_threads:
        # A 5-chunk run took a few milliseconds, short against the
        # host's scheduling noise: repeat the capture until one run
        # takes MIN_RUN_MS.
        rx = _wifi_capture()
        baseline.run(rx, timed=False)  # warm the code and buffers
        while baseline.run(rx, timed=False) < MIN_RUN_MS * 1_000_000:
            rx = np.concatenate([rx, rx])
        disabled.run(rx, timed=False)
        baseline.run(rx, timed=False)

        for index in range(OVERHEAD_PASSES):
            # Alternate which side goes first, so a drift in host load
            # favours neither.
            first, second = ((disabled, baseline) if index % 2
                             else (baseline, disabled))
            first.run(rx)
            second.run(rx)

    folded = {"baseline": baseline.folded_ms(),
              "disabled": disabled.folded_ms()}
    overhead = folded["disabled"] / folded["baseline"] - 1.0
    print(f"\nTelemetry — disabled-path overhead: {overhead * 100:+.2f}% "
          f"(folded over {OVERHEAD_PASSES} interleaved passes per side: "
          f"baseline {folded['baseline']:.2f} ms, disabled "
          f"{folded['disabled']:.2f} ms, {rx.size} samples per run)")
    telemetry_record["disabled_overhead"] = {
        "samples_per_run": int(rx.size),
        "blas_threads": blas_threads,
        "passes": OVERHEAD_PASSES,
        "folded_ms": folded,
        "pass_ms": {"baseline": [ns / 1e6 for ns in baseline.pass_ns],
                    "disabled": [ns / 1e6 for ns in disabled.pass_ns]},
        "overhead_fraction": overhead,
        "limit_fraction": MAX_DISABLED_OVERHEAD,
    }
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {overhead * 100:.2f}% "
        f"(limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
