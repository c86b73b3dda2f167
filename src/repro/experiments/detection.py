"""Detection-performance characterization (paper Figs. 6, 7, 8).

Methodology mirrors paper §3.2:

* a second USRP transmits WiFi frames (complete frames, or
  pseudo-frames carrying a single preamble) over a wired link,
* the received SNR is set by scaling the transmit amplitude against a
  fixed noise floor and "measured independently",
* for a chosen false-alarm rate, the correlator threshold is derived
  from the trigger statistics of a 50-ohm-terminated (noise-only)
  receiver, and
* the probability of detection is the fraction of frames that produce
  at least one trigger.

False-alarm calibration: on sign-sliced white noise the correlator's
real and imaginary accumulators are sums of 128 independent +-c terms,
hence Gaussian with variance E = sum(cI^2 + cQ^2); the squared metric
is then exponential with mean 2E and the per-sample exceedance of a
threshold T is exp(-T / (2E)).  Setting the expected trigger rate
``P * sample_rate`` equal to the target false-alarm rate gives a
closed-form threshold, which :func:`measured_false_alarm_rate` checks
empirically (tests do this at measurable rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import units
from repro.channel.awgn import awgn
from repro.core.coeffs import (
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.dsp.resample import resample
from repro.errors import ConfigurationError
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.hw.energy_differentiator import (
    DEFAULT_DELAY,
    DEFAULT_WINDOW,
    EnergyDifferentiator,
)
from repro.hw.trigger import rising_edges
from repro.kernels import (
    energy_detect_batch,
    prepare_coefficients,
    xcorr_detect_batch,
)
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.params import WIFI_SAMPLE_RATE, WifiRate
from repro.phy.wifi.preamble import long_preamble, long_training_symbol, short_preamble
from repro.runtime.cache import cached_artifact
from repro.runtime.jobs import (
    STRICT_RESILIENCE,
    ResilienceConfig,
    resilient_sweep,
)

if TYPE_CHECKING:
    from repro.faults.workers import WorkerFaultInjector
    from repro.telemetry.session import Telemetry

#: The paper's frame pacing: 130 frames per second, 10,000 frames.
PAPER_FRAME_RATE = 130
PAPER_FRAME_COUNT = 10_000

#: Gap of noise-only samples inserted before each frame (warm-up for
#: the streaming blocks and separation between detection windows).
GUARD_SAMPLES = 512

#: Frames folded into one sweep trial.  Each trial is one schedulable
#: unit of the :mod:`repro.runtime.sweep` grid, so this sets the
#: load-balancing granularity of a parallel curve run.
FRAMES_PER_TRIAL = 50

#: Seed-sequence spice decorrelating the frame-synthesis generator
#: from the per-trial noise generators that share the same user seed.
_FRAME_SEED_KEY = 0xF4A3


@dataclass(frozen=True)
class DetectionPoint:
    """One point of a detection-probability curve."""

    snr_db: float
    detection_probability: float
    mean_detections_per_frame: float
    n_frames: int


def coefficient_energy(coeffs_i: np.ndarray, coeffs_q: np.ndarray) -> float:
    """E = sum(cI^2 + cQ^2), the accumulator variance on sign noise."""
    return float(np.sum(np.asarray(coeffs_i, dtype=np.float64) ** 2)
                 + np.sum(np.asarray(coeffs_q, dtype=np.float64) ** 2))


def threshold_for_false_alarm_rate(coeffs_i: np.ndarray, coeffs_q: np.ndarray,
                                   fa_per_second: float,
                                   sample_rate: float = units.BASEBAND_RATE) -> int:
    """Correlator threshold achieving the target false-alarm rate.

    Uses the exponential-tail model described in the module docstring.
    """
    if fa_per_second <= 0:
        raise ConfigurationError("fa_per_second must be positive")
    if fa_per_second >= sample_rate:
        raise ConfigurationError("false-alarm rate above the sample rate")
    energy = coefficient_energy(coeffs_i, coeffs_q)
    if energy == 0:
        raise ConfigurationError("zero-energy coefficient banks")
    threshold = 2.0 * energy * math.log(sample_rate / fa_per_second)
    return int(round(threshold))


#: Row width the noise-only calibration folds its chunks into.
_FA_ROW_SAMPLES = 1 << 13


def measured_false_alarm_rate(correlator: CrossCorrelator, duration_s: float,
                              rng: np.random.Generator,
                              chunk_samples: int = 1 << 18) -> float:
    """Empirical triggers/second on a noise-only (terminated) input.

    The noise is drawn in ``chunk_samples`` pieces (the RNG draw order
    is part of the seeded contract) but each chunk runs through the
    chained batch kernel as a ``rows x _FA_ROW_SAMPLES`` block, with
    the sign history and last-trigger state carried across chunks —
    byte-identical to streaming the same noise through
    ``correlator.process`` from reset state.
    """
    total_samples = int(duration_s * units.BASEBAND_RATE)
    prepared = correlator.prepared_coefficients
    thresholds = correlator.thresholds
    triggers = 0
    history = None
    last = None
    remaining = total_samples
    while remaining > 0:
        n = min(chunk_samples, remaining)
        n_rows = -(-n // _FA_ROW_SAMPLES)
        blocks = np.zeros((n_rows, _FA_ROW_SAMPLES), dtype=np.complex128)
        awgn(n, 1.0, rng, out=blocks.reshape(-1)[:n])
        lengths = np.full(n_rows, _FA_ROW_SAMPLES, dtype=np.int64)
        lengths[-1] = n - _FA_ROW_SAMPLES * (n_rows - 1)
        result = xcorr_detect_batch(blocks, lengths, prepared, thresholds,
                                    history=history, last=last)
        triggers += int(result.edge_plane.sum())
        history = result.history
        last = result.last
        remaining -= n
    return triggers / duration_s


def _frame_waveforms(kind: str, rng: np.random.Generator) -> np.ndarray:
    """One test waveform at 20 MSPS for the requested frame kind."""
    if kind == "full":
        psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        return build_ppdu(psdu, WifiFrameConfig(rate=WifiRate.MBPS_54))
    if kind == "single_long":
        symbol = long_training_symbol()
        return symbol / np.sqrt(np.mean(np.abs(symbol) ** 2))
    if kind == "single_short":
        stf = short_preamble()[:16]
        return stf / np.sqrt(np.mean(np.abs(stf) ** 2))
    raise ConfigurationError(f"unknown frame kind {kind!r}")


def _impaired_arrivals(base_frame_20: np.ndarray,
                       ) -> list[np.ndarray]:
    """The frame as the jammer receives it, at quarter-sample offsets.

    Real TX and RX sample grids are unaligned, so each over-the-air
    frame lands at a random fractional delay.  We realize delays on a
    quarter-sample grid by upsampling 20 -> 100 MSPS and decimating by
    4 at each of the four phases.
    """
    up100 = resample(base_frame_20, WIFI_SAMPLE_RATE, units.FPGA_CLOCK_HZ)
    arrivals = []
    for offset in range(4):
        sig = up100[offset::4]
        power = np.mean(np.abs(sig) ** 2)
        arrivals.append(sig / np.sqrt(power))
    return arrivals


@cached_artifact
def _frame_arrivals(frame_kind: str, seed: int) -> tuple[np.ndarray, ...]:
    """The four quarter-sample arrivals of one deterministic test frame.

    Memoized by ``(frame_kind, seed)``: every trial of a sweep — and
    every worker process — shares one synthesized frame instead of
    rebuilding the PPDU and running the 20->100->25 MSPS resampling
    chain per trial.  The frame generator is decorrelated from the
    per-trial noise generators by :data:`_FRAME_SEED_KEY`.
    """
    rng = np.random.default_rng([seed, _FRAME_SEED_KEY])
    return tuple(_impaired_arrivals(_frame_waveforms(frame_kind, rng)))


@dataclass(frozen=True, eq=False)
class _CurveTrialSpec:
    """Picklable description of one detection-curve trial batch."""

    frame_kind: str
    snr_db: float
    n_frames: int
    frame_seed: int
    #: Correlator trials carry the quantized banks and threshold;
    #: energy trials carry the rise threshold instead.
    coeffs_i: np.ndarray | None = None
    coeffs_q: np.ndarray | None = None
    threshold: int = 0
    energy_threshold_db: float | None = None


def _count_frames(spec: _CurveTrialSpec, rng: np.random.Generator
                  ) -> tuple[int, int]:
    """Batched frame engine: (frames detected, total in-frame triggers).

    Synthesizes every frame of the trial into one ``(rows, width)``
    block matrix — preserving the RNG draw order of the streaming loop
    exactly — and runs a single chained batch-kernel call over it.
    Per-frame counts are byte-identical to feeding the frames one by
    one through the streaming detectors (the chained edge extraction
    can differ from the per-frame loop only at column 0 of a row,
    which lies inside the guard gap and is excluded from the in-frame
    window).  :func:`_count_frames_looped` keeps the streaming
    reference alive for the identity tests and benchmarks.
    """
    arrivals = _frame_arrivals(spec.frame_kind, spec.frame_seed)
    scale = np.sqrt(units.db_to_linear(spec.snr_db))
    energy_mode = spec.energy_threshold_db is not None
    warmup = 4 * DEFAULT_DELAY if energy_mode else 0
    n_rows = spec.n_frames + (1 if warmup else 0)
    width = GUARD_SAMPLES + max(a.size for a in arrivals)
    blocks = np.zeros((n_rows, width), dtype=np.complex128)
    lengths = np.empty(n_rows, dtype=np.int64)
    row = 0
    if warmup:
        # The looped engine warms the energy detector on noise before
        # the first frame; the batched path keeps that draw as row 0
        # and discards its edges below.
        awgn(warmup, 1.0, rng, out=blocks[0, :warmup])
        lengths[0] = warmup
        row = 1
    for _ in range(spec.n_frames):
        frame_25 = arrivals[rng.integers(0, len(arrivals))]
        if energy_mode:
            factor = scale
        else:
            # The sign-slicing correlator has 90-degree phase
            # resolution, so each frame gets a random carrier phase.
            factor = scale * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        size = GUARD_SAMPLES + frame_25.size
        segment = blocks[row, :size]
        awgn(size, 1.0, rng, out=segment)
        segment[GUARD_SAMPLES:] += frame_25 * factor
        lengths[row] = size
        row += 1
    if energy_mode:
        threshold = units.db_to_linear(spec.energy_threshold_db)
        result = energy_detect_batch(blocks, lengths,
                                     DEFAULT_WINDOW, DEFAULT_DELAY,
                                     threshold, threshold)
        edge_plane = result.edge_high
    else:
        prepared = prepare_coefficients([(spec.coeffs_i, spec.coeffs_q)])
        result = xcorr_detect_batch(blocks, lengths, prepared,
                                    [spec.threshold])
        edge_plane = result.edge_plane[:, 0]
    frame_rows = edge_plane[1:] if warmup else edge_plane
    in_frame = frame_rows[:, GUARD_SAMPLES:]
    per_frame = in_frame.sum(axis=1)
    return int((per_frame > 0).sum()), int(per_frame.sum())


def _count_frames_looped(spec: _CurveTrialSpec, detector_process,
                         rng: np.random.Generator, warmup: int = 0
                         ) -> tuple[int, int]:
    """Streaming reference frame loop (one detector call per frame)."""
    arrivals = _frame_arrivals(spec.frame_kind, spec.frame_seed)
    scale = np.sqrt(units.db_to_linear(spec.snr_db))
    if warmup:
        detector_process(awgn(warmup, 1.0, rng))
    detected = 0
    detections_total = 0
    last = False
    for _ in range(spec.n_frames):
        frame_25 = arrivals[rng.integers(0, len(arrivals))]
        if spec.energy_threshold_db is None:
            factor = scale * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        else:
            factor = scale
        block = awgn(GUARD_SAMPLES + frame_25.size, 1.0, rng)
        block[GUARD_SAMPLES:] += frame_25 * factor
        trig = detector_process(block)
        edges = rising_edges(trig, last)
        last = bool(trig[-1])
        in_frame = edges[edges >= GUARD_SAMPLES]
        detections_total += in_frame.size
        if in_frame.size:
            detected += 1
    return detected, detections_total


def _xcorr_trial(spec: _CurveTrialSpec, rng: np.random.Generator
                 ) -> tuple[int, int]:
    """One correlator trial batch (a SweepRunner task)."""
    return _count_frames(spec, rng)


def _energy_trial(spec: _CurveTrialSpec, rng: np.random.Generator
                  ) -> tuple[int, int]:
    """One energy-differentiator trial batch (a SweepRunner task)."""
    return _count_frames(spec, rng)


def _xcorr_trial_looped(spec: _CurveTrialSpec, rng: np.random.Generator
                        ) -> tuple[int, int]:
    """Streaming-reference correlator trial (identity tests, benchmarks)."""
    correlator = CrossCorrelator(spec.coeffs_i, spec.coeffs_q,
                                 threshold=spec.threshold)

    def process(block: np.ndarray) -> np.ndarray:
        return correlator.process(block)[0]

    return _count_frames_looped(spec, process, rng)


def _energy_trial_looped(spec: _CurveTrialSpec, rng: np.random.Generator
                         ) -> tuple[int, int]:
    """Streaming-reference energy trial (identity tests, benchmarks)."""
    detector = EnergyDifferentiator(
        threshold_high_db=spec.energy_threshold_db,
        threshold_low_db=spec.energy_threshold_db)

    def process(block: np.ndarray) -> np.ndarray:
        trig_high, _trig_low = detector.process(block)
        return trig_high

    # Warm the detector so the cold-start rise is consumed.
    return _count_frames_looped(spec, process, rng,
                                warmup=4 * detector.delay)


def _trial_batches(n_frames: int) -> list[int]:
    """Split a point's frame budget into per-trial batch sizes."""
    full, rest = divmod(n_frames, FRAMES_PER_TRIAL)
    return [FRAMES_PER_TRIAL] * full + ([rest] if rest else [])


def _merge_points(snrs_db: list[float], specs: list[_CurveTrialSpec],
                  outcomes: list[list[tuple[int, int]]]
                  ) -> list[DetectionPoint]:
    """Fold per-trial (detected, triggers) counts back into curve points."""
    detected = {snr: 0 for snr in snrs_db}
    triggers = {snr: 0 for snr in snrs_db}
    frames = {snr: 0 for snr in snrs_db}
    for spec, (result,) in zip(specs, outcomes):
        detected[spec.snr_db] += result[0]
        triggers[spec.snr_db] += result[1]
        frames[spec.snr_db] += spec.n_frames
    return [
        DetectionPoint(
            snr_db=snr,
            detection_probability=detected[snr] / frames[snr],
            mean_detections_per_frame=triggers[snr] / frames[snr],
            n_frames=frames[snr],
        )
        for snr in snrs_db
    ]


def _detection_curve(template: np.ndarray, frame_kind: str,
                     snrs_db: list[float], n_frames: int,
                     fa_per_second: float, seed: int,
                     workers: int = 1,
                     telemetry: "Telemetry | None" = None,
                     resilience: "ResilienceConfig | None" = None,
                     fault_injector: "WorkerFaultInjector | None" = None
                     ) -> list[DetectionPoint]:
    """Shared sweep engine for the correlator characterizations.

    The (SNR x trial-batch) grid runs through the fault-tolerant job
    layer (:func:`repro.runtime.jobs.resilient_sweep`): every trial
    draws its noise and impairments from ``default_rng(seed +
    trial_index)``, so the curve is byte-identical for any ``workers``
    count — and for any number of worker crashes, hangs, retries, or
    checkpoint resumes the run survives along the way.  The default
    policy (:data:`~repro.runtime.jobs.STRICT_RESILIENCE`) retries
    failed shards but never quarantines: a curve with holes is not a
    result.
    """
    coeffs_i, coeffs_q = quantize_coefficients(template)
    threshold = threshold_for_false_alarm_rate(coeffs_i, coeffs_q,
                                               fa_per_second)
    specs = [
        _CurveTrialSpec(frame_kind=frame_kind, snr_db=snr_db,
                        n_frames=batch, frame_seed=seed,
                        coeffs_i=coeffs_i, coeffs_q=coeffs_q,
                        threshold=threshold)
        for snr_db in snrs_db
        for batch in _trial_batches(n_frames)
    ]
    outcomes = resilient_sweep(
        _xcorr_trial, specs, workers=workers, seed_root=seed,
        telemetry=telemetry,
        config=resilience if resilience is not None else STRICT_RESILIENCE,
        fault_injector=fault_injector)
    return _merge_points(snrs_db, specs, outcomes)


def long_preamble_curve(snrs_db: list[float], n_frames: int = 500,
                        fa_per_second: float = 0.083,
                        full_frames: bool = True,
                        seed: int = 20140818,
                        workers: int = 1,
                        telemetry: "Telemetry | None" = None,
                        resilience: "ResilienceConfig | None" = None,
                        fault_injector: "WorkerFaultInjector | None" = None
                        ) -> list[DetectionPoint]:
    """Fig. 6: long-preamble detection vs SNR.

    ``full_frames=False`` sends pseudo-frames carrying a single long
    training symbol, the paper's harder case.
    """
    kind = "full" if full_frames else "single_long"
    return _detection_curve(wifi_long_preamble_template(), kind, snrs_db,
                            n_frames, fa_per_second, seed,
                            workers=workers, telemetry=telemetry,
                            resilience=resilience,
                            fault_injector=fault_injector)


def short_preamble_curve(snrs_db: list[float], n_frames: int = 500,
                         fa_per_second: float = 0.059,
                         seed: int = 20140819,
                         workers: int = 1,
                         telemetry: "Telemetry | None" = None,
                         resilience: "ResilienceConfig | None" = None,
                         fault_injector: "WorkerFaultInjector | None" = None
                         ) -> list[DetectionPoint]:
    """Fig. 7: short-preamble detection of full WiFi frames vs SNR."""
    return _detection_curve(wifi_short_preamble_template(), "full", snrs_db,
                            n_frames, fa_per_second, seed,
                            workers=workers, telemetry=telemetry,
                            resilience=resilience,
                            fault_injector=fault_injector)


def roc_curve(template: np.ndarray, snr_db: float,
              fa_rates_per_s: list[float], n_frames: int = 300,
              frame_kind: str = "single_long",
              seed: int = 20140821,
              workers: int = 1,
              telemetry: "Telemetry | None" = None,
              resilience: "ResilienceConfig | None" = None
              ) -> list[tuple[float, float]]:
    """Receiver operating characteristic at a fixed SNR.

    Sweeps the false-alarm operating point (the paper evaluates two:
    0.083 and 0.52 triggers/s) and returns ``(fa_per_s, Pd)`` pairs.
    The trade is monotone: admitting more false alarms buys detection.
    Every operating point replays the same seeded trials, so only the
    threshold varies between the returned pairs.
    """
    points = []
    for fa in fa_rates_per_s:
        curve = _detection_curve(template, frame_kind, [snr_db], n_frames,
                                 fa, seed, workers=workers,
                                 telemetry=telemetry, resilience=resilience)
        points.append((fa, curve[0].detection_probability))
    return points


def energy_detector_curve(snrs_db: list[float], n_frames: int = 500,
                          threshold_db: float = 10.0,
                          seed: int = 20140820,
                          workers: int = 1,
                          telemetry: "Telemetry | None" = None,
                          resilience: "ResilienceConfig | None" = None,
                          fault_injector: "WorkerFaultInjector | None" = None
                          ) -> list[DetectionPoint]:
    """Fig. 8: energy differentiator on full WiFi frames vs SNR.

    Reports both detection probability and the mean detections per
    frame — the paper highlights the multiple-detection regime between
    -3 and 8 dB SNR.  Runs on the same sweep grid as the correlator
    curves, so the result is independent of ``workers``.
    """
    specs = [
        _CurveTrialSpec(frame_kind="full", snr_db=snr_db,
                        n_frames=batch, frame_seed=seed,
                        energy_threshold_db=threshold_db)
        for snr_db in snrs_db
        for batch in _trial_batches(n_frames)
    ]
    outcomes = resilient_sweep(
        _energy_trial, specs, workers=workers, seed_root=seed,
        telemetry=telemetry,
        config=resilience if resilience is not None else STRICT_RESILIENCE,
        fault_injector=fault_injector)
    return _merge_points(snrs_db, specs, outcomes)
