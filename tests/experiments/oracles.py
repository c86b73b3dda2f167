"""Streaming oracles for the batched detection-curve engine.

The trials in :mod:`repro.experiments.detection` draw a trial into one
plane: :func:`~repro.experiments.detection._xcorr_trial` runs the
correlator kernel once over rows from ``GUARD_SAMPLES - taps`` on,
each its own history, and
:func:`~repro.experiments.detection._energy_trial` streams full-width
rows through one energy facade and takes edges with one compare.
These are the per-frame streaming loops they replaced: one detector
call per frame on the whole frame, with awgn noise, the detector state
carried from frame to frame and edges taken by a few-line reference of
their own, so an identity test against them checks the trimmed rows,
the edge compare and the draw order independently of the engine.
Tests and the kernel benchmark import them.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.channel.awgn import awgn
from repro.experiments.detection import (
    GUARD_SAMPLES,
    _CurveTrialSpec,
    _frame_arrivals,
)
from repro.hw.cross_correlator import CrossCorrelator
from repro.hw.energy_differentiator import EnergyDifferentiator


def rising_edges(trigger: np.ndarray, previous_last: bool) -> np.ndarray:
    """Indices where a 1-D boolean trigger goes 0 -> 1."""
    padded = np.concatenate([[bool(previous_last)], trigger])
    return np.flatnonzero(~padded[:-1] & padded[1:])


def count_frames_looped(spec: _CurveTrialSpec, detector_process,
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


def xcorr_trial_looped(spec: _CurveTrialSpec, rng: np.random.Generator
                       ) -> tuple[int, int]:
    """Streaming-reference correlator trial."""
    correlator = CrossCorrelator(spec.coeffs_i, spec.coeffs_q,
                                 threshold=spec.threshold)

    def process(block: np.ndarray) -> np.ndarray:
        return correlator.detect(block)[0]

    return count_frames_looped(spec, process, rng)


def energy_trial_looped(spec: _CurveTrialSpec, rng: np.random.Generator
                        ) -> tuple[int, int]:
    """Streaming-reference energy trial (trigger-high edges)."""
    detector = EnergyDifferentiator(
        threshold_high_db=spec.energy_threshold_db,
        threshold_low_db=spec.energy_threshold_db)

    def process(block: np.ndarray) -> np.ndarray:
        return detector.detect(block)[0]

    # Warm the detector so the cold-start rise is consumed.
    return count_frames_looped(spec, process, rng,
                               warmup=4 * detector.delay)
