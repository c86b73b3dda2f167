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
    THRESHOLD_MAX_DB,
    THRESHOLD_MIN_DB,
    EnergyDifferentiator,
)
from repro.kernels import (
    clamped_thresholds,
    edge_mask,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
)
from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
from repro.phy.wifi.params import WIFI_SAMPLE_RATE, WifiRate
from repro.phy.wifi.preamble import long_training_symbol, short_preamble
from repro.runtime.buffers import ScratchBuffer
from repro.runtime.cache import cached_artifact
from repro.runtime.jobs import ResilienceConfig, resilient_sweep

if TYPE_CHECKING:
    from repro.faults.workers import WorkerFaultInjector
    from repro.telemetry.session import Telemetry

#: The paper's frame pacing: 130 frames per second, 10,000 frames.
PAPER_FRAME_RATE = 130
PAPER_FRAME_COUNT = 10_000

#: Gap of noise-only samples inserted before each frame (warm-up for
#: the streaming blocks and separation between detection windows).
GUARD_SAMPLES = 512

#: Frames folded into one sweep trial.  Each trial is one cell of the
#: :mod:`repro.runtime.jobs` grid, so this sets the load-balancing
#: granularity of a parallel curve run.
FRAMES_PER_TRIAL = 50

#: Per-component scale of unit-power complex noise, ``sqrt(power / 2)``
#: exactly as :func:`repro.channel.awgn.awgn` applies it.
_NOISE_SCALE = np.sqrt(0.5)

_TWO_PI = 2.0 * np.pi

#: Grow-only storage for a trial's draw plane: sweeps run trial after
#: trial in one process, and a fresh plane per trial would pay its
#: page faults every time.
_DRAWS = ScratchBuffer(np.float64)

#: Seed-sequence spice decorrelating the frame-synthesis generator
#: from the per-trial noise generators that share the same user seed.
_FRAME_SEED_KEY = 0xF4A3

#: Kept only for ``benchmarks/e2e/workloads.py``, whose traced
#: ``fig6_sweep`` pass wraps this name; nothing here calls it.
xcorr_detect_batch = xcorr_detect


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


def measured_false_alarm_rate(correlator: CrossCorrelator, duration_s: float,
                              rng: np.random.Generator,
                              chunk_samples: int = 1 << 18) -> float:
    """Empirical triggers/second on a noise-only (terminated) input.

    The noise is drawn in ``chunk_samples`` pieces (the RNG draw order
    is part of the seeded contract) and streamed, from reset state,
    through a fresh :class:`CrossCorrelator` holding ``correlator``'s
    banks and thresholds; ``correlator`` itself is not touched.  Each
    chunk's rising edges are taken against the previous chunk's last
    trigger column.
    """
    if not duration_s > 0:
        raise ConfigurationError(
            f"calibration duration must be positive, got {duration_s} s")
    if chunk_samples < 1:
        raise ConfigurationError(
            f"chunk_samples must be at least 1, got {chunk_samples}")
    detector = CrossCorrelator()
    detector.load_banks([correlator.bank_coefficients(k)
                         for k in range(correlator.n_banks)],
                        correlator.thresholds)
    triggers = 0
    last = np.zeros(detector.n_banks, dtype=bool)
    remaining = int(duration_s * units.BASEBAND_RATE)
    while remaining > 0:
        n = min(chunk_samples, remaining)
        trigger = detector.detect(awgn(n, 1.0, rng))
        triggers += int(np.count_nonzero(edge_mask(trigger, last)))
        last = trigger[:, -1]
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


def _draw_plane(rng: np.random.Generator, n_frames: int,
                sizes: list[int], warmup: int, phased: bool
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every random draw of one trial, in the streaming loop's order.

    Per frame that order is the arrival pick, the carrier phase (for
    correlator trials) and the noise, drawn as
    :func:`repro.channel.awgn.awgn` draws it: one ``standard_normal``
    call of twice the frame's length, real half first.  Returns
    ``(plane, picks, phases)``: ``plane`` is ``(rows, 2, width)``
    float64 unit normals with row ``r``'s real draws in
    ``plane[r, 0, :length]`` and its imaginary draws in
    ``plane[r, 1, :length]``, zero past its length.  A non-zero
    ``warmup`` is drawn first, as row 0.  The plane is a view of
    module scratch, valid until the next trial in this process.
    """
    first = 1 if warmup else 0
    width = max(sizes)
    rows = n_frames + first
    flat = _DRAWS.view(rows * 2 * width).reshape(rows, 2 * width)
    picks = np.empty(n_frames, dtype=np.int64)
    phases = np.empty(n_frames) if phased else None
    if warmup:
        _draw_row(rng, flat[0], warmup)
    for frame in range(n_frames):
        pick = rng.integers(0, len(sizes))
        picks[frame] = pick
        if phased:
            # The sign-slicing correlator has 90-degree phase
            # resolution, so each frame gets a random carrier phase.
            # uniform(0, 2pi) is low + (high - low) * u of one draw;
            # with low = 0 this is the same double, without the call.
            phases[frame] = _TWO_PI * rng.random()
        size = sizes[pick]
        row = flat[first + frame]
        if size == width:
            rng.standard_normal(out=row)
        else:
            _draw_row(rng, row, size)
    return flat.reshape(rows, 2, width), picks, phases


def _draw_row(rng: np.random.Generator, row: np.ndarray, size: int) -> None:
    """Draw ``size`` noise samples into a flat ``[real | imag]`` plane row.

    The draws land contiguously; the imaginary half then moves to the
    row's second half and both pads are zeroed.
    """
    width = row.size // 2
    rng.standard_normal(out=row[:2 * size])
    row[width:width + size] = row[size:2 * size]
    row[size:width] = 0.0
    row[width + size:] = 0.0


def _trial_rows(spec: _CurveTrialSpec, rng: np.random.Generator,
                warmup: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """One trial's complex rows from column ``start``, and frame lengths.

    The draws come from :func:`_draw_plane` in the streaming loop's RNG
    order (correlator specs also draw a carrier phase per frame).  Only
    the columns from ``start`` on are scaled, as
    :func:`repro.channel.awgn.awgn` scales them, and the frames are
    added in one pass.  A non-zero ``warmup`` is row 0; each frame row
    follows, its frame from column ``GUARD_SAMPLES - start`` and zeros
    past its end.  Counts taken from these rows are byte-identical to
    feeding the frames one by one through the streaming detectors,
    the oracle loop in the tests.
    """
    arrivals = _frame_arrivals(spec.frame_kind, spec.frame_seed)
    scale = np.sqrt(units.db_to_linear(spec.snr_db))
    frame_sizes = np.array([a.size for a in arrivals])
    plane, picks, phases = _draw_plane(
        rng, spec.n_frames, [GUARD_SAMPLES + n for n in frame_sizes.tolist()],
        warmup, phased=spec.energy_threshold_db is None)
    first = 1 if warmup else 0

    # The awgn scaling, on the read columns only; a frame's zero
    # padding stays zero.
    rows = np.empty((plane.shape[0], plane.shape[2] - start),
                    dtype=np.complex128)
    np.multiply(plane[:, 0, start:], _NOISE_SCALE, out=rows.real)
    np.multiply(plane[:, 1, start:], _NOISE_SCALE, out=rows.imag)
    padded = np.zeros((len(arrivals), frame_sizes.max()),
                      dtype=np.complex128)
    for index, arrival in enumerate(arrivals):
        padded[index, :arrival.size] = arrival
    factors = scale if phases is None \
        else scale * np.exp(1j * phases)[:, None]
    rows[first:, GUARD_SAMPLES - start:] += padded[picks] * factors
    return rows, frame_sizes[picks]


def _tally(in_frame: np.ndarray) -> tuple[int, int]:
    """(frames detected, total in-frame edges) of a per-frame edge plane."""
    per_frame = in_frame.sum(axis=1)
    return int((per_frame > 0).sum()), int(per_frame.sum())


def _xcorr_trial(spec: _CurveTrialSpec, rng: np.random.Generator
                 ) -> tuple[int, int]:
    """One correlator trial batch (a sweep task).

    A frame counts only the rising edges at columns ``>= GUARD_SAMPLES``,
    and an edge at column ``c`` reads the triggers at ``c`` and
    ``c - 1``.  The first trigger that matters is therefore the one at
    ``GUARD_SAMPLES - 1``, whose ``taps``-sample window starts at
    ``GUARD_SAMPLES - taps``.  Rows start at that column and are not
    chained: each row's own first ``taps - 1`` samples are its history,
    so the kernel evaluates only the windows ending at columns
    ``GUARD_SAMPLES - 1`` onwards, and an edge is one compare of
    adjacent triggers.  A bank longer than the guard would need the
    previous frame as history and is rejected.
    """
    prepared = prepare_coefficients([(spec.coeffs_i, spec.coeffs_q)])
    if prepared.taps > GUARD_SAMPLES:
        raise ConfigurationError(
            f"a {prepared.taps}-tap bank is longer than the "
            f"{GUARD_SAMPLES}-sample guard")
    rows, lengths = _trial_rows(spec, rng, warmup=0,
                                start=GUARD_SAMPLES - prepared.taps)
    limits = clamped_thresholds(prepared, [spec.threshold])
    # trigger[:, j] is the window ending at column GUARD_SAMPLES - 1 + j.
    trigger = xcorr_detect(sign_plane(rows), prepared, limits)[:, 0]
    in_frame = trigger[:, 1:] > trigger[:, :-1]
    if np.any(lengths < in_frame.shape[1]):
        in_frame &= np.arange(in_frame.shape[1]) < lengths[:, None]
    return _tally(in_frame)


def _energy_trial(spec: _CurveTrialSpec, rng: np.random.Generator
                  ) -> tuple[int, int]:
    """One energy-differentiator trial batch (a sweep task).

    The warm-up row, which consumes the cold-start rise, and then each
    frame row at its valid length stream through one
    :class:`EnergyDifferentiator`, whose energy and sum tails chain the
    rows as they chain a stream's chunks.  The rows keep their full
    width: their float moving sums run on unquantized samples, where a
    cumulative sum's start changes its rounding.  Trigger rows land in
    a zeroed plane, so a frame's padding never rises, and the counted
    edges at columns ``>= GUARD_SAMPLES`` are one compare of adjacent
    triggers that never reads a row's column 0, so they need no carry.
    """
    warmup = 4 * DEFAULT_DELAY
    rows, lengths = _trial_rows(spec, rng, warmup, start=0)
    detector = EnergyDifferentiator(spec.energy_threshold_db,
                                    spec.energy_threshold_db)
    detector.detect(rows[0, :warmup])
    triggers = np.zeros((spec.n_frames, 2, rows.shape[1]), dtype=bool)
    for row, trigger, length in zip(rows[1:], triggers,
                                    (GUARD_SAMPLES + lengths).tolist()):
        detector.detect(row[:length], out=trigger[:, :length])
    high = triggers[:, 0]
    return _tally(high[:, GUARD_SAMPLES:] > high[:, GUARD_SAMPLES - 1:-1])


def _trial_batches(n_frames: int) -> list[int]:
    """Split a point's frame budget into per-trial batch sizes."""
    if n_frames < 1:
        raise ConfigurationError(
            f"a curve point needs at least 1 frame, got {n_frames}")
    full, rest = divmod(n_frames, FRAMES_PER_TRIAL)
    return [FRAMES_PER_TRIAL] * full + ([rest] if rest else [])


def _merge_points(snrs_db: list[float], specs: list[_CurveTrialSpec],
                  outcomes: list[list[tuple[int, int]]]
                  ) -> list[DetectionPoint]:
    """Fold per-trial (detected, triggers) counts back into curve points.

    The specs are point-major with the same number of trials per point,
    so trial ``i`` belongs to point ``i // per_point``: a repeated SNR
    stays two points.
    """
    per_point = len(specs) // len(snrs_db) if snrs_db else 0
    points = []
    for index, snr in enumerate(snrs_db):
        cells = range(index * per_point, (index + 1) * per_point)
        frames = sum(specs[cell].n_frames for cell in cells)
        detected = sum(outcomes[cell][0][0] for cell in cells)
        triggers = sum(outcomes[cell][0][1] for cell in cells)
        points.append(DetectionPoint(
            snr_db=snr,
            detection_probability=detected / frames,
            mean_detections_per_frame=triggers / frames,
            n_frames=frames,
        ))
    return points


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
    :class:`~repro.runtime.jobs.ResilienceConfig` retries failed shards
    but never quarantines: a curve with holes is not a result.
    """
    batches = _trial_batches(n_frames)
    coeffs_i, coeffs_q = quantize_coefficients(template)
    threshold = threshold_for_false_alarm_rate(coeffs_i, coeffs_q,
                                               fa_per_second)
    specs = [
        _CurveTrialSpec(frame_kind=frame_kind, snr_db=snr_db,
                        n_frames=batch, frame_seed=seed,
                        coeffs_i=coeffs_i, coeffs_q=coeffs_q,
                        threshold=threshold)
        for snr_db in snrs_db
        for batch in batches
    ]
    outcomes = resilient_sweep(
        _xcorr_trial, specs, workers=workers, seed_root=seed,
        telemetry=telemetry,
        config=resilience,
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
    _trial_batches(n_frames)  # reject a bad budget before any point runs
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
    ``threshold_db`` must lie in the block's programmable 3-30 dB
    range; it is checked before any trial runs.
    """
    batches = _trial_batches(n_frames)
    if not THRESHOLD_MIN_DB <= threshold_db <= THRESHOLD_MAX_DB:
        raise ConfigurationError(
            f"energy threshold {threshold_db} dB outside the programmable "
            f"{THRESHOLD_MIN_DB}-{THRESHOLD_MAX_DB} dB range")
    specs = [
        _CurveTrialSpec(frame_kind="full", snr_db=snr_db,
                        n_frames=batch, frame_seed=seed,
                        energy_threshold_db=threshold_db)
        for snr_db in snrs_db
        for batch in batches
    ]
    outcomes = resilient_sweep(
        _energy_trial, specs, workers=workers, seed_root=seed,
        telemetry=telemetry,
        config=resilience,
        fault_injector=fault_injector)
    return _merge_points(snrs_db, specs, outcomes)
