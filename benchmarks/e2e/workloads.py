"""The benchmark's four workloads.

Each workload makes its inputs from the seed, builds the system under
test, runs one pass over the inputs, names the layers a traced pass
wraps, and checks its own outputs.  The three stream workloads feed a
capture through :meth:`repro.core.jammer.ReactiveJammer.run`; the
sweep workload runs the Fig. 6 grid through
:mod:`repro.runtime.jobs`.  Sizes are constructor arguments so the
smoke test can run every workload tiny; the defaults are the
benchmark's sizes and never change with the time budget.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.experiments.detection as detection_module
import repro.hw.banked_correlator as banked_module
import repro.hw.cross_correlator as xcorr_module
import repro.hw.ddc as ddc_module
from benchmarks.e2e.tracing import StageTracer
from repro import units
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_long_preamble_template,
    wifi_short_preamble_template,
    wimax_preamble_template,
    zigbee_preamble_template,
)
from repro.core.detection import DetectionConfig, ProtocolBank
from repro.core.events import JammingEventBuilder
from repro.core.jammer import JammingReport, ReactiveJammer
from repro.core.presets import JammerPersonality, reactive_jammer
from repro.experiments.detection import GUARD_SAMPLES, long_preamble_curve
from repro.hw.tx_controller import JamWaveform
from repro.hw.watchdog import Watchdog, WatchdogConfig
from repro.phy.wifi.dsss import DSSS_SAMPLE_RATE, build_dsss_ppdu
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.params import WIFI_SAMPLE_RATE
from repro.phy.wifi.preamble import long_training_symbol
from repro.phy.wimax.frame import build_downlink_frame
from repro.phy.wimax.params import WIMAX_SAMPLE_RATE, WimaxConfig
from repro.phy.zigbee.frame import build_ppdu as build_zigbee_ppdu
from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

#: The paper's line rate; ``rtf`` is throughput over this.
LINE_RATE = units.BASEBAND_RATE

#: Receiver noise floor every capture is built on.
NOISE_POWER = 1e-4


def _capture(transmissions: list[Transmission], n_samples: int,
             rng: np.random.Generator) -> np.ndarray:
    return mix_at_port(transmissions, out_rate=LINE_RATE,
                       duration=n_samples / LINE_RATE,
                       noise_power=NOISE_POWER, rng=rng)


def _power(snr_db: float) -> float:
    return units.db_to_linear(snr_db) * NOISE_POWER


def _psdu(rng: np.random.Generator, n_bytes: int) -> bytes:
    return rng.integers(0, 256, n_bytes, dtype=np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Stream workloads


@dataclass
class StreamInputs:
    """A capture at line rate and where its frames were placed."""

    rx: np.ndarray
    #: (first sample, length in samples) of every injected frame.
    frames: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class PassOutput:
    """Everything one pass produced, in stream order."""

    tx: list[np.ndarray] = field(default_factory=list)
    detections: list = field(default_factory=list)
    jams: list = field(default_factory=list)
    chunks: int = 0
    skipped: int = 0

    def add(self, report: JammingReport) -> None:
        """Append one ``ReactiveJammer.run`` report."""
        self.tx.append(report.tx)
        self.detections.extend(report.detections)
        self.jams.extend(report.jams)
        self.chunks += (report.health.chunks_processed
                        + report.health.chunks_skipped)
        self.skipped += report.health.chunks_skipped

    def digest(self) -> str:
        """sha256 of the tx bytes, then the detection and jam tuples.

        The tx parts are hashed in order, so the digest does not depend
        on how the stream was cut into chunks or segments.
        """
        digest = hashlib.sha256()
        for part in self.tx:
            digest.update(np.ascontiguousarray(part))
        digest.update(repr([(d.time, int(d.source), d.protocol)
                            for d in self.detections]).encode())
        digest.update(repr([(j.trigger_time, j.start, j.end, int(j.waveform))
                            for j in self.jams]).encode())
        return digest.hexdigest()


class StreamWorkload:
    """A capture streamed through one configured jammer, chunk by chunk.

    A pass resets the jammer's data path and runs the capture; with
    ``segment`` set it calls ``ReactiveJammer.run`` once per segment
    and lets :meth:`before_segment` reprogram the jammer in between.
    """

    name = ""
    why = ""
    chunk = 8192
    #: A second chunk size for the chunked == single-shot gate.
    alt_chunk = 8192
    segment: int | None = None
    personality: JammerPersonality

    def inputs(self, seed: int) -> StreamInputs:
        raise NotImplementedError

    def build(self) -> ReactiveJammer:
        """Construct and configure the jammer under test."""
        raise NotImplementedError

    def before_segment(self, jammer: ReactiveJammer, index: int) -> None:
        """Reprogram the jammer before segment ``index`` (default: no-op)."""

    def segments(self, inputs: StreamInputs) -> list[np.ndarray]:
        size = self.segment or inputs.rx.size
        return [inputs.rx[start:start + size]
                for start in range(0, inputs.rx.size, size)]

    def chunk_count(self, inputs: StreamInputs, chunk: int) -> int:
        """``UsrpN210.process`` calls one pass makes at ``chunk``."""
        return sum(-(-seg.size // chunk) for seg in self.segments(inputs))

    def run_pass(self, jammer: ReactiveJammer, inputs: StreamInputs,
                 chunk: int) -> PassOutput:
        jammer.reset()
        out = PassOutput()
        for index, samples in enumerate(self.segments(inputs)):
            self.before_segment(jammer, index)
            out.add(jammer.run(samples, chunk_size=chunk))
        return out

    def first_result(self, jammer: ReactiveJammer,
                     inputs: StreamInputs) -> None:
        """The set-up's first result: one chunk through the jammer."""
        self.before_segment(jammer, 0)
        jammer.run(inputs.rx[:self.chunk], chunk_size=self.chunk)

    def check(self, inputs: StreamInputs, out: PassOutput) -> list[str]:
        """Workload-specific output checks; messages for failures."""
        return []

    def trace_layers(self, tracer: StageTracer,
                     jammer: ReactiveJammer) -> None:
        """Wrap the public call into every layer of the stream path."""
        device = jammer.device
        core = device.core
        count = tracer.count

        def on_report(report: JammingReport) -> None:
            count("core.jammer.chunks", report.health.chunks_processed)
            count("core.jammer.detections", len(report.detections))
            count("core.jammer.jams", len(report.jams))

        tracer.wrap(jammer, "run", "core.jammer", on_result=on_report)
        tracer.wrap(jammer.driver, "set_correlator_bank", "hw.uhd",
                    on_result=lambda _r: count("hw.uhd.swaps"))
        tracer.wrap(device, "process", "hw.usrp")
        tracer.wrap(device.ddc, "process", "hw.ddc")
        tracer.wrap(ddc_module, "quantize_iq16", "dsp.quantize_iq16")
        tracer.wrap(core, "process", "hw.dsp_core")
        tracer.wrap(core.correlator, "detect", "hw.cross_correlator")
        tracer.wrap(core.banked, "detect", "hw.banked_correlator")
        tracer.wrap(xcorr_module, "sign_plane", "kernels.sign_plane")
        tracer.wrap(banked_module, "sign_plane", "kernels.sign_plane")
        tracer.wrap(xcorr_module, "xcorr_detect", "kernels.xcorr_detect")
        tracer.wrap(banked_module, "xcorr_detect_stacked",
                    "kernels.xcorr_detect_stacked")
        tracer.wrap(core.energy, "detect", "hw.energy_differentiator")
        tracer.wrap(core.fsm, "process_events", "hw.trigger",
                    on_result=lambda times: count("hw.trigger.fires",
                                                  len(times)))
        tracer.wrap(core.tx, "schedule", "hw.tx_controller",
                    on_result=lambda bursts: count(
                        "hw.tx_controller.scheduled", len(bursts)))
        for method in ("observe_rx", "synthesize", "cancel_interval",
                       "release_interval"):
            tracer.wrap(core.tx, method, "hw.tx_controller")
        if core.watchdog is not None:
            tracer.wrap(core.watchdog, "admit_interval", "hw.watchdog",
                        on_result=lambda ok: count("hw.watchdog.admitted",
                                                   int(ok)))
            tracer.wrap(core.watchdog, "check_rearm", "hw.watchdog")
        tracer.wrap(device.duc, "process", "hw.duc")


def _configure(jammer: ReactiveJammer, detection: DetectionConfig,
               events: JammingEventBuilder,
               personality: JammerPersonality) -> ReactiveJammer:
    jammer.configure(detection=detection, events=events,
                     personality=personality)
    return jammer


class WifiStream(StreamWorkload):
    """802.11g frames at 15 dB, one short-preamble correlator bank."""

    name = "wifi_stream"
    why = ("the paper's headline use: DDC, xcorr and energy kernels "
           "dominate and per-event work is small, so kernel gains show")
    chunk = 8192
    alt_chunk = 65_536 + 11
    personality = reactive_jammer(1e-5)
    threshold = 20_000
    snr_db = 15.0

    def __init__(self, frames: int = 80, slot: int = 20_000) -> None:
        self.frames = frames
        self.slot = slot

    def inputs(self, seed: int) -> StreamInputs:
        rng = np.random.default_rng([seed, 1])
        transmissions = []
        frames = []
        for k in range(self.frames):
            ppdu = build_ppdu(_psdu(rng, 100), WifiFrameConfig())
            length = int(np.ceil(ppdu.size * LINE_RATE / WIFI_SAMPLE_RATE))
            start = k * self.slot + int(
                rng.integers(500, self.slot - length - 500))
            frames.append((start, length))
            transmissions.append(Transmission(
                ppdu, WIFI_SAMPLE_RATE, start / LINE_RATE,
                _power(self.snr_db)))
        rx = _capture(transmissions, self.frames * self.slot, rng)
        return StreamInputs(rx=rx, frames=frames)

    def build(self) -> ReactiveJammer:
        return _configure(
            ReactiveJammer(),
            DetectionConfig(template=wifi_short_preamble_template(),
                            xcorr_threshold=self.threshold),
            JammingEventBuilder().on_correlation(), self.personality)

    def check(self, inputs: StreamInputs, out: PassOutput) -> list[str]:
        triggers = np.sort([jam.trigger_time for jam in out.jams])
        missed = []
        for start, length in inputs.frames:
            first = np.searchsorted(triggers, start)
            if first == triggers.size or triggers[first] >= start + length:
                missed.append(start)
        if missed:
            return [f"{len(missed)} of {len(inputs.frames)} injected frames "
                    f"were not jammed (first at sample {missed[0]})"]
        return []


class MultistdHotswap(StreamWorkload):
    """Four protocol banks; bank 0 is reprogrammed while it streams."""

    name = "multistd_hotswap"
    why = ("one K=4 correlator both detects and is reprogrammed over "
           "verified register writes; caching at program time shows here")
    chunk = 4096
    alt_chunk = 10_007
    #: Bank 0 is hot-swapped through UhdDriver every this many samples.
    segment = 65_536
    personality = reactive_jammer(1e-5)
    snr_db = 15.0
    gap_s = 1.44e-3

    def __init__(self, rounds: int = 12) -> None:
        self.rounds = rounds
        #: Bank 0 alternates between these (template, threshold) pairs.
        self.swaps = [(wifi_short_preamble_template(), 12_000),
                      (wifi_long_preamble_template(), 12_000)]

    @staticmethod
    def _banks() -> tuple[ProtocolBank, ...]:
        return (ProtocolBank("wifi", wifi_short_preamble_template(), 12_000),
                ProtocolBank("dsss", dsss_preamble_template(), 13_000),
                ProtocolBank("wimax", wimax_preamble_template(), 9_000),
                ProtocolBank("zigbee", zigbee_preamble_template(), 42_000))

    def inputs(self, seed: int) -> StreamInputs:
        rng = np.random.default_rng([seed, 2])
        wimax = WimaxConfig()
        # DSSS and ZigBee payloads reuse their preambles' spreading
        # codes, so short payloads keep the event streams realistic.
        factories = [
            (lambda: build_ppdu(_psdu(rng, 120), WifiFrameConfig()),
             WIFI_SAMPLE_RATE),
            (lambda: build_dsss_ppdu(_psdu(rng, 4)), DSSS_SAMPLE_RATE),
            (lambda: build_downlink_frame(wimax, rng)[:10_000],
             WIMAX_SAMPLE_RATE),
            (lambda: build_zigbee_ppdu(_psdu(rng, 4)), ZIGBEE_SAMPLE_RATE),
        ]
        transmissions = [
            Transmission(factory(), rate, slot * self.gap_s + 100e-6,
                         _power(self.snr_db))
            for slot, (factory, rate)
            in enumerate(factories * self.rounds)]
        n_samples = int(round(len(transmissions) * self.gap_s * LINE_RATE))
        return StreamInputs(rx=_capture(transmissions, n_samples, rng))

    def build(self) -> ReactiveJammer:
        return _configure(ReactiveJammer(), DetectionConfig(banks=self._banks()),
                          JammingEventBuilder().on_correlation(),
                          self.personality)

    def before_segment(self, jammer: ReactiveJammer, index: int) -> None:
        template, threshold = self.swaps[index % len(self.swaps)]
        jammer.driver.set_correlator_bank(0, template, threshold=threshold)

    def check(self, inputs: StreamInputs, out: PassOutput) -> list[str]:
        fired = {d.protocol for d in out.detections}
        silent = [bank.name for bank in self._banks()
                  if bank.name not in fired]
        return [f"protocol banks never fired: {silent}"] if silent else []


class EnergyStorm(StreamWorkload):
    """Dense short frames on the energy trigger, under a duty guard."""

    name = "energy_storm"
    why = ("about one event per 1024-sample chunk puts the chunk loop, "
           "detection collection, FSM, TX and watchdog in the spotlight")
    chunk = 1024
    alt_chunk = 4099
    personality = reactive_jammer(40e-6, waveform=JamWaveform.REPLAY)
    snr_db = 20.0
    duty = 0.3
    duty_window = 25_000

    def __init__(self, samples: int = 1_600_000) -> None:
        self.samples = samples

    def inputs(self, seed: int) -> StreamInputs:
        rng = np.random.default_rng([seed, 3])
        transmissions = []
        start_s = 20e-6
        end_s = self.samples / LINE_RATE - 40e-6
        while start_s < end_s:
            transmissions.append(Transmission(
                build_ppdu(_psdu(rng, 20), WifiFrameConfig()),
                WIFI_SAMPLE_RATE, start_s, _power(self.snr_db)))
            start_s += rng.uniform(60e-6, 100e-6)
        return StreamInputs(rx=_capture(transmissions, self.samples, rng))

    def build(self) -> ReactiveJammer:
        watchdog = Watchdog(WatchdogConfig(
            max_duty_cycle=self.duty, duty_window_samples=self.duty_window))
        return _configure(ReactiveJammer(watchdog=watchdog), DetectionConfig(),
                          JammingEventBuilder().on_energy_rise(),
                          self.personality)

    def check(self, inputs: StreamInputs, out: PassOutput) -> list[str]:
        # The duty guard's promise: in any window ending at a burst's
        # end, admitted bursts cover at most duty * window samples.
        jams = sorted(out.jams, key=lambda jam: jam.start)
        budget = self.duty * self.duty_window
        for index, jam in enumerate(jams):
            lo = jam.end - self.duty_window
            busy = sum(min(other.end, jam.end) - max(other.start, lo)
                       for other in jams[:index + 1] if other.end > lo)
            if busy > budget:
                return [f"duty guard exceeded: {busy} jam samples in the "
                        f"window ending at {jam.end} (budget {budget:g})"]
        return []


# ---------------------------------------------------------------------------
# Sweep workloads


class SweepWorkload:
    """A paper figure's grid run through ``repro.runtime.jobs``.

    A pass is one whole sweep at ``workers`` processes (the timed ones
    at one).  The input is the seed itself: every trial of the grid
    draws from it.
    """

    name = ""
    why = ""
    #: The experiment module whose ``resilient_sweep`` call the traced
    #: serial run wraps.
    module: Any = None

    def run(self, seed: int, workers: int) -> list:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """The smallest grid that yields a first result, in one process."""
        raise NotImplementedError

    def air_seconds(self) -> float:
        """Air time one sweep simulates, in seconds."""
        raise NotImplementedError

    @staticmethod
    def summary(result: list) -> list:
        raise NotImplementedError

    def digest(self, result: list) -> str:
        """sha256 of the curve, floats in hex so no digit is lost."""
        rows = [tuple(v.hex() if isinstance(v, float) else v for v in row)
                for row in self.summary(result)]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def check(self, result: list) -> list[str]:
        return []

    def time_tasks(self, tracer: StageTracer, durations: list[int]) -> None:
        """Collect the run time of every task the job layer runs.

        The experiment module's ``resilient_sweep`` gets the task
        function wrapped in :class:`TimedTask`, which a worker pool can
        pickle; the wrapper strips the times off the results before the
        experiment sees them and appends them to ``durations``.
        """
        original = self.module.resilient_sweep

        def sweep_timing_tasks(fn, *args, **kwargs):
            groups = original(TimedTask(fn), *args, **kwargs)
            durations.extend(ns for group in groups for _result, ns in group)
            return [[result for result, _ns in group] for group in groups]

        tracer.patch(self.module, "resilient_sweep", sweep_timing_tasks)

    def trace_layers(self, tracer: StageTracer) -> None:
        """Wrap the job layer and the kernels the experiment calls.

        The kernels are module-level names, so forked workers inherit
        the wrappers too (their spans stay in the worker).
        """
        tracer.wrap(self.module, "resilient_sweep", "runtime.jobs")


class TimedTask:
    """A sweep task function that also returns its own run time in ns.

    A plain class instance around a module-level function, so the job
    layer can pickle it into worker processes.
    """

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, point, rng) -> tuple[Any, int]:
        start = time.perf_counter_ns()
        result = self.fn(point, rng)
        return result, time.perf_counter_ns() - start


class Fig6Sweep(SweepWorkload):
    """Fig. 6 long-preamble detection curve, single-long pseudo-frames."""

    name = "fig6_sweep"
    why = ("the Fig. 6 grid through the job layer: batched BLAS kernels "
           "and shard bookkeeping; the worker pool's speed-up is a "
           "per-layer metric")
    module = detection_module
    snrs_db = [-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 5.0, 8.0, 12.0]

    def __init__(self, frames: int = 1000) -> None:
        self.frames = frames

    def run(self, seed: int, workers: int, frames: int | None = None) -> list:
        return long_preamble_curve(self.snrs_db,
                                   n_frames=frames or self.frames,
                                   full_frames=False, seed=seed,
                                   workers=workers)

    def setup(self, seed: int) -> None:
        self.run(seed, 1, frames=detection_module.FRAMES_PER_TRIAL)

    def air_seconds(self) -> float:
        frame_s = (GUARD_SAMPLES / LINE_RATE
                   + long_training_symbol().size / WIFI_SAMPLE_RATE)
        return self.frames * len(self.snrs_db) * frame_s

    @staticmethod
    def summary(result: list) -> list:
        return [(p.snr_db, p.detection_probability,
                 p.mean_detections_per_frame, p.n_frames) for p in result]

    def check(self, result: list) -> list[str]:
        pd = [p.detection_probability for p in result]
        if any(b < a for a, b in zip(pd, pd[1:])):
            return [f"Pd is not monotone in SNR: {pd}"]
        return []

    def trace_layers(self, tracer: StageTracer) -> None:
        super().trace_layers(tracer)
        tracer.wrap(detection_module, "xcorr_detect_batch",
                    "kernels.xcorr_detect_batch")
        tracer.wrap(detection_module, "awgn", "channel.awgn")


WORKLOADS = {wl.name: wl for wl in (WifiStream, MultistdHotswap, EnergyStorm,
                                    Fig6Sweep)}

