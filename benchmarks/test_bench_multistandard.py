"""Stacked multi-standard correlator bank vs serial one-bank runs.

The claim of the K-bank kernel: detecting K protocols takes ONE pass
over the received trace — one shared sign plane, one windowed GEMM
against the band of all K coefficient banks — instead of K full runs
of a one-bank correlator.  The serial runs are the K=1 case of the
same kernel.  All the per-run work that does not scale with K (DDC,
IQ16 quantization, sign slicing, energy detection, per-chunk Python
dispatch) is paid once instead of four times, so the stacked pass
beats four serial runs even though it does the same correlation
FLOPs.

The bench mixes 12 frames each of 802.11g OFDM, 802.11b DSSS,
802.16e OFDMA, and 802.15.4 O-QPSK into one 69 ms airtime trace, then
measures:

* **serial** — four :class:`repro.core.jammer.ReactiveJammer` runs,
  one per protocol template (the pre-stacked workflow);
* **stacked** — one jammer configured with four
  :class:`repro.core.detection.ProtocolBank` entries, one run.

Identity is gated before speed: every bank's detection-time list must
be byte-identical to its serial counterpart, and each protocol must
actually fire on the mixed trace.  The wall-clock floor is
``MIN_STACKED_SPEEDUP``; the record lands in
``BENCH_multistandard.json`` at the repository root (a CI artifact).

Programming (template quantization, register writes) happens outside
the timed region: the comparison is detection passes over the trace,
not host configuration, which both workflows pay once up front.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import units
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_short_preamble_template,
    wimax_preamble_template,
    zigbee_preamble_template,
)
from repro.core.detection import DetectionConfig, ProtocolBank
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.phy.wifi.dsss import DSSS_SAMPLE_RATE, build_dsss_ppdu
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.params import WIFI_SAMPLE_RATE
from repro.phy.wimax.frame import build_downlink_frame
from repro.phy.wimax.params import WIMAX_SAMPLE_RATE, WimaxConfig
from repro.phy.zigbee.frame import build_ppdu as build_zigbee_ppdu
from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

#: Wall-clock floor: one stacked pass vs four serial single-bank runs.
MIN_STACKED_SPEEDUP = 2.0

NOISE = 1e-4
SNR_DB = 15.0
N_FRAMES = 12
GAP_S = 1.2e-3
#: Small enough that per-chunk fixed cost is a visible fraction of a
#: run — the realistic streaming regime the stacked pass amortizes.
CHUNK = 4096
REPEATS = 2


def _standard_setups(rng):
    """(protocol, frame factory, native rate, template, threshold)."""
    wimax_cfg = WimaxConfig()
    # DSSS and ZigBee payloads use the same spreading sequences as
    # their preambles, so every payload symbol re-crosses the
    # threshold; short payloads keep the event streams representative
    # without drowning the run in per-event bookkeeping.
    return [
        ("wifi",
         lambda: build_ppdu(rng.integers(0, 256, 120, dtype=np.uint8)
                            .tobytes(), WifiFrameConfig()),
         WIFI_SAMPLE_RATE, wifi_short_preamble_template(), 12_000),
        ("dsss",
         lambda: build_dsss_ppdu(rng.integers(0, 256, 4, dtype=np.uint8)
                                 .tobytes()),
         DSSS_SAMPLE_RATE, dsss_preamble_template(), 13_000),
        ("wimax",
         lambda: build_downlink_frame(wimax_cfg, rng)[:10_000],
         WIMAX_SAMPLE_RATE, wimax_preamble_template(), 9_000),
        ("zigbee",
         lambda: build_zigbee_ppdu(rng.integers(0, 256, 4, dtype=np.uint8)
                                   .tobytes()),
         ZIGBEE_SAMPLE_RATE, zigbee_preamble_template(), 42_000),
    ]


def _mixed_trace(rng, setups):
    """Interleaved frames of all four standards on one timeline."""
    transmissions = []
    slot = 0
    for _ in range(N_FRAMES):
        for _name, factory, rate, _template, _threshold in setups:
            transmissions.append(Transmission(
                factory(), rate, start_time=slot * GAP_S + 100e-6,
                power=units.db_to_linear(SNR_DB) * NOISE))
            slot += 1
    return mix_at_port(transmissions, out_rate=units.BASEBAND_RATE,
                       duration=slot * GAP_S, noise_power=NOISE, rng=rng)


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
def test_bench_stacked_bank_vs_serial(multistandard_record):
    rng = np.random.default_rng(4)
    setups = _standard_setups(rng)
    rx = _mixed_trace(rng, setups)
    events = JammingEventBuilder().on_correlation()
    personality = reactive_jammer(1e-5)

    # Program every jammer up front; the timed region is detection
    # passes only.  reset() restores the data path (clock, histories,
    # trigger carries) between repeats without touching registers.
    serial_jammers = []
    for _name, _factory, _rate, template, threshold in setups:
        jammer = ReactiveJammer()
        jammer.configure(DetectionConfig(template=template,
                                         xcorr_threshold=threshold),
                         events, personality)
        serial_jammers.append(jammer)
    stacked_jammer = ReactiveJammer()
    stacked_jammer.configure(
        DetectionConfig(banks=tuple(
            ProtocolBank(name, template, threshold)
            for name, _factory, _rate, template, threshold in setups)),
        events, personality)

    def one_run(jammer):
        jammer.reset()
        return jammer.run(rx, chunk_size=CHUNK)

    serial_ns = 0
    serial_times = {}
    for (name, *_rest), jammer in zip(setups, serial_jammers):
        elapsed, report = _best_of(REPEATS, lambda j=jammer: one_run(j))
        serial_ns += elapsed
        serial_times[name] = [d.time for d in report.detections
                              if d.source.name == "XCORR"]
    stacked_ns, stacked_report = _best_of(
        REPEATS, lambda: one_run(stacked_jammer))
    stacked_times = {
        name: [d.time for d in stacked_report.detections
               if d.protocol == name]
        for name, *_rest in setups
    }

    identical_counts = {
        name: serial_times[name] == stacked_times[name]
        for name in serial_times
    }
    speedup = serial_ns / stacked_ns
    record = {
        "samples": int(rx.size),
        "chunk_size": CHUNK,
        "serial_ns": serial_ns,
        "stacked_ns": stacked_ns,
        "speedup": speedup,
        "min_speedup": MIN_STACKED_SPEEDUP,
        "detections": {name: len(times)
                       for name, times in stacked_times.items()},
        "identical_counts": all(identical_counts.values()),
    }
    multistandard_record["stacked_bank_vs_serial"] = record

    print(f"\nstacked bank: 4 serial runs {serial_ns / 1e6:.1f} ms, "
          f"one stacked pass {stacked_ns / 1e6:.1f} ms "
          f"-> {speedup:.2f}x (floor {MIN_STACKED_SPEEDUP:.1f}x)")
    for name, times in stacked_times.items():
        print(f"  {name:<8}{len(times):>6} detections  "
              f"identical={identical_counts[name]}")

    # Identity gates before speed: a fast-but-wrong stacked pass must
    # fail loudly, and every protocol must actually fire on the trace.
    assert all(identical_counts.values()), identical_counts
    for name, times in stacked_times.items():
        assert times, f"protocol {name} never detected on the mixed trace"
    assert speedup >= MIN_STACKED_SPEEDUP, (
        f"stacked pass speedup {speedup:.2f}x under the "
        f"{MIN_STACKED_SPEEDUP:.1f}x floor"
    )
