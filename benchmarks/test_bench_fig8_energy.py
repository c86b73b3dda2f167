"""Fig. 8 — energy differentiator detection of full WiFi frames.

The paper's three regimes at a 10 dB rise threshold: no detections
when the signal is buried, a band of multiple detections per frame
while the frame-start rise hovers near the threshold, and exactly one
clean detection per frame once safely above it.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.detection import energy_detector_curve

SNRS_DB = [-6.0, -3.0, 0.0, 3.0, 6.0, 8.0, 9.0, 10.0, 11.0, 13.0, 16.0]
N_FRAMES = 300

#: Sweep pool size (results are worker-count-independent).
_WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))


def _run():
    return energy_detector_curve(SNRS_DB, n_frames=N_FRAMES,
                                 threshold_db=10.0, workers=_WORKERS)


def test_bench_fig8_energy_differentiator(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\nFig. 8 — energy differentiator on full WiFi frames (10 dB threshold)")
    print("SNR(dB)      " + "".join(f"{p.snr_db:>6.0f}" for p in points))
    print("P(detect)    " + "".join(
        f"{p.detection_probability:>6.2f}" for p in points))
    print("mean det/frm " + "".join(
        f"{p.mean_detections_per_frame:>6.2f}" for p in points))
    print("paper regimes: none below -3 dB | multiple -3..8 dB | single >10 dB")
    print("ours: the same three regimes, positioned around the 10 dB threshold")
    print("(the paper's sub-threshold detections stem from front-end dynamic-")
    print("range artifacts its own text describes; see EXPERIMENTS.md)")

    by_snr = {p.snr_db: p for p in points}
    # Regime 1: far below the threshold no detections occur.
    assert by_snr[-6.0].detection_probability == 0.0
    assert by_snr[3.0].detection_probability == 0.0
    # Regime 2: near the threshold, detections appear and frames can
    # trigger more than once (the paper's "multiple detections").
    marginal = [p for p in points if 8.0 <= p.snr_db <= 11.0]
    assert any(p.detection_probability > 0.2 for p in marginal)
    assert any(p.mean_detections_per_frame > 1.02 * p.detection_probability
               for p in marginal)
    # Regime 3: well above the threshold, exactly one detection/frame.
    assert by_snr[16.0].detection_probability == 1.0
    assert by_snr[16.0].mean_detections_per_frame == pytest.approx(1.0, abs=0.05)
