"""Deterministic chaos campaigns: the jammer under injected faults.

A :class:`ChaosScenario` describes one arm of a fault-injection
experiment — which :class:`~repro.faults.plan.FaultPlan` to replay,
whether the hardened control path (verified writes + scrub) and the
core watchdog are armed, and how the run recovers from stream errors.
:func:`run_scenario` executes it end-to-end against a synthetic frame
train and measures what the acceptance criteria care about:

* **full-frame detection probability** — the fraction of frames whose
  span produced at least one cross-correlator detection;
* **jam coverage** — the fraction of frames overlapped by a jam burst;
* **transmit duty cycle** — the nonzero fraction of the transmitted
  waveform (the quantity the watchdog bounds).

Every random draw is seeded from the scenario, so a campaign is a
reproducible experiment, not a flaky stress test.  The frame train is
the detection-experiment methodology in miniature: pseudo-frames built
from the WiFi short-preamble correlator template embedded in a fixed
noise floor at a configured SNR, with the correlator threshold derived
from the closed-form false-alarm model.

The host reasserts its configuration once per frame (threshold and an
alternating burst uptime), the way the paper's GUI retunes the jammer
at run time — this is what gives control-plane faults something to
corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import DegradationPolicy, ReactiveJammer
from repro.core.presets import JammerPersonality
from repro.errors import ConfigurationError, HardwareError
from repro.experiments.detection import threshold_for_false_alarm_rate
from repro.faults.bus import FaultyRegisterBus
from repro.faults.plan import FaultPlan
from repro.faults.stream import StreamFaultInjector
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.trigger import TriggerSource
from repro.hw.usrp import UsrpN210
from repro.hw.watchdog import Watchdog, WatchdogConfig, WatchdogTrip

#: Noise-only guard before each frame's burst (streaming warm-up).
GUARD_SAMPLES = 512

#: Detections up to this many samples after the burst still count for
#: the frame (pipeline latency between burst end and trigger).
DETECTION_SLACK_SAMPLES = 128

#: The two burst uptimes the host alternates between (0.01/0.1 ms).
UPTIME_SHORT_SAMPLES = 250
UPTIME_LONG_SAMPLES = 2500


@dataclass(frozen=True)
class ChaosScenario:
    """One arm of a chaos campaign.

    Attributes:
        name: Label used in results and benchmark output.
        plan: The fault plan replayed against this arm.
        hardened: Verified writes + periodic scrub on the driver.
        watchdog: Core watchdog policy, or ``None`` for no watchdog.
        degradation: Per-chunk recovery policy for the run loop.
        scrub_every_chunks: Scrub period (chunks); 0 disables.
        raise_on_overrun: Stream overruns raise instead of zero-fill,
            exercising the skip-and-log recovery path.
        n_frames: Frames in the synthetic train.
        frame_samples: Samples per frame segment (guard + burst + tail).
        burst_repeats: Correlator-template repetitions per burst.
        chunk_size: Processing chunk size (smaller than a frame so
            scrub passes land mid-frame).
        snr_db: Burst SNR over the noise floor.
        noise_power: Mean noise power at the quantizer input.
        false_alarm_per_second: Target rate for the threshold formula.
        seed: Seed for the noise train (independent of the fault plan's
            own seed).
    """

    name: str
    plan: FaultPlan
    hardened: bool = True
    watchdog: WatchdogConfig | None = None
    degradation: DegradationPolicy = DegradationPolicy.SKIP_AND_LOG
    scrub_every_chunks: int = 4
    raise_on_overrun: bool = False
    n_frames: int = 40
    frame_samples: int = 4096
    burst_repeats: int = 4
    chunk_size: int = 1024
    snr_db: float = 12.0
    noise_power: float = 1e-4
    false_alarm_per_second: float = 10.0
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ConfigurationError("n_frames must be >= 1")
        if self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if self.noise_power <= 0:
            raise ConfigurationError("noise_power must be positive")


@dataclass
class ChaosResult:
    """Measured outcome of one scenario."""

    name: str
    n_frames: int
    frames_detected: int
    frames_jammed: int
    tx_duty_cycle: float
    control_errors: int
    chunks_processed: int
    chunks_skipped: int
    control_faults_injected: int
    stream_faults_injected: int
    scrub_repairs: list[int] = field(default_factory=list)
    driver_health: dict[str, int] = field(default_factory=dict)
    watchdog_trips: list[WatchdogTrip] = field(default_factory=list)

    @property
    def detection_probability(self) -> float:
        """Fraction of frames with at least one correlator detection."""
        return self.frames_detected / self.n_frames

    @property
    def jam_coverage(self) -> float:
        """Fraction of frames overlapped by at least one jam burst."""
        return self.frames_jammed / self.n_frames


def _build_jammer(scenario: ChaosScenario
                  ) -> tuple[ReactiveJammer, FaultyRegisterBus,
                             StreamFaultInjector, int]:
    """Construct the device under test, configured over a clean bus."""
    template = wifi_short_preamble_template()
    coeffs_i, coeffs_q = quantize_coefficients(template)
    threshold = threshold_for_false_alarm_rate(
        coeffs_i, coeffs_q, scenario.false_alarm_per_second)

    bus = FaultyRegisterBus(scenario.plan)
    bus.faults_enabled = False  # verified clean boot
    injector = StreamFaultInjector(scenario.plan,
                                   raise_on_overrun=scenario.raise_on_overrun)
    watchdog = Watchdog(scenario.watchdog) \
        if scenario.watchdog is not None else None
    device = UsrpN210(bus=bus, watchdog=watchdog, stream_faults=injector)
    jammer = ReactiveJammer(device=device, verify_writes=scenario.hardened)
    jammer.configure(
        detection=DetectionConfig(template=template,
                                  xcorr_threshold=threshold),
        events=JammingEventBuilder().on_correlation(),
        personality=JammerPersonality(
            name="chaos-reactive", uptime_samples=UPTIME_LONG_SAMPLES),
    )
    bus.faults_enabled = True
    return jammer, bus, injector, threshold


def run_scenario(scenario: ChaosScenario) -> ChaosResult:
    """Execute one scenario and measure detection/coverage/duty."""
    jammer, bus, injector, threshold = _build_jammer(scenario)
    template = wifi_short_preamble_template()
    burst = np.tile(template, scenario.burst_repeats)
    if GUARD_SAMPLES + burst.size > scenario.frame_samples:
        raise ConfigurationError(
            f"frame_samples {scenario.frame_samples} too short for the "
            f"guard ({GUARD_SAMPLES}) plus burst ({burst.size})"
        )
    template_power = float(np.mean(np.abs(template) ** 2))
    burst_scale = np.sqrt(
        scenario.noise_power * 10.0 ** (scenario.snr_db / 10.0)
        / template_power
    )
    sigma = np.sqrt(scenario.noise_power / 2.0)
    rng = np.random.default_rng([scenario.seed, 7])

    frames_detected = 0
    frames_jammed = 0
    tx_active = 0
    total_samples = 0
    control_errors = 0
    chunks_processed = 0
    chunks_skipped = 0
    scrub_repairs: list[int] = []
    watchdog_trips: list[WatchdogTrip] = []
    last_health = None

    for index in range(scenario.n_frames):
        uptime = UPTIME_SHORT_SAMPLES if index % 2 \
            else UPTIME_LONG_SAMPLES
        try:
            # The per-frame host churn the faults get to corrupt.
            jammer.driver.set_xcorr_threshold(threshold)
            jammer.driver.set_jam_uptime(uptime)
        except (ConfigurationError, HardwareError):
            # An unhardened host survives by dropping the update; the
            # register keeps whatever (possibly corrupt) word landed.
            control_errors += 1

        seg_start = jammer.device.core.clock
        n = scenario.frame_samples
        segment = sigma * (rng.standard_normal(n)
                           + 1j * rng.standard_normal(n))
        segment[GUARD_SAMPLES:GUARD_SAMPLES + burst.size] += \
            burst_scale * burst
        report = jammer.run(
            segment, chunk_size=scenario.chunk_size,
            degradation=scenario.degradation,
            scrub_every_chunks=(scenario.scrub_every_chunks
                                if scenario.hardened else 0),
        )
        burst_lo = seg_start + GUARD_SAMPLES
        burst_hi = burst_lo + burst.size + DETECTION_SLACK_SAMPLES
        if any(d.source is TriggerSource.XCORR
               and burst_lo <= d.time < burst_hi
               for d in report.detections):
            frames_detected += 1
        if any(j.start < burst_hi and j.end > burst_lo
               for j in report.jams):
            frames_jammed += 1
        tx_active += int(np.count_nonzero(report.tx))
        total_samples += n
        chunks_processed += report.health.chunks_processed
        chunks_skipped += report.health.chunks_skipped
        scrub_repairs.extend(report.health.scrub_repairs)
        watchdog_trips.extend(report.health.watchdog_trips)
        last_health = report.health

    return ChaosResult(
        name=scenario.name,
        n_frames=scenario.n_frames,
        frames_detected=frames_detected,
        frames_jammed=frames_jammed,
        tx_duty_cycle=tx_active / total_samples,
        control_errors=control_errors,
        chunks_processed=chunks_processed,
        chunks_skipped=chunks_skipped,
        control_faults_injected=len(bus.fault_log),
        stream_faults_injected=len(injector.fault_log),
        scrub_repairs=scrub_repairs,
        driver_health=dict(last_health.driver) if last_health else {},
        watchdog_trips=watchdog_trips,
    )


def run_campaign(scenarios: list[ChaosScenario]) -> dict[str, ChaosResult]:
    """Run several scenarios and index the results by name."""
    results: dict[str, ChaosResult] = {}
    for scenario in scenarios:
        if scenario.name in results:
            raise ConfigurationError(
                f"duplicate scenario name {scenario.name!r}"
            )
        results[scenario.name] = run_scenario(scenario)
    return results
