"""Fig. 6 — cross-correlation detection of WiFi long preambles.

Sweeps received SNR for pseudo-frames with a single long preamble and
for complete WiFi frames (two long preambles each), at the paper's two
false-alarm operating points (0.083 and 0.52 triggers/s).
"""

from __future__ import annotations

import os

from benchmarks.paper_reference import FIG6_FULL_PLATEAU, FIG6_SINGLE_PLATEAU
from repro.experiments.detection import long_preamble_curve

SNRS_DB = [-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 5.0, 8.0, 12.0]
N_FRAMES = 400

#: Sweep pool size: results are worker-count-independent, so the
#: sweep runs parallel where cores exist and serial where they don't.
_WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))


def _run():
    return {
        "single fa=0.083": long_preamble_curve(
            SNRS_DB, n_frames=N_FRAMES, fa_per_second=0.083,
            full_frames=False, workers=_WORKERS),
        "single fa=0.52": long_preamble_curve(
            SNRS_DB, n_frames=N_FRAMES, fa_per_second=0.52,
            full_frames=False, workers=_WORKERS),
        "full   fa=0.083": long_preamble_curve(
            SNRS_DB, n_frames=N_FRAMES, fa_per_second=0.083,
            full_frames=True, workers=_WORKERS),
    }


def test_bench_fig6_long_preamble(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\nFig. 6 — long-preamble detection probability vs SNR")
    header = "series            " + "".join(f"{s:>7.0f}" for s in SNRS_DB)
    print(header + "   (SNR dB)")
    for name, points in curves.items():
        row = "".join(f"{p.detection_probability:>7.2f}" for p in points)
        print(f"{name:<18}{row}")
    print(f"paper plateaus: single ~{FIG6_SINGLE_PLATEAU:.0%}, "
          f"full frames >={FIG6_FULL_PLATEAU:.0%} above 5 dB "
          "(our ideal front end saturates higher; see EXPERIMENTS.md)")

    single = {p.snr_db: p.detection_probability
              for p in curves["single fa=0.083"]}
    single_loose = {p.snr_db: p.detection_probability
                    for p in curves["single fa=0.52"]}
    full = {p.snr_db: p.detection_probability
            for p in curves["full   fa=0.083"]}

    # Shape checks (the paper's qualitative findings):
    # 1. detection grows with SNR and exceeds the paper's plateau.
    assert single[-6.0] < 0.1
    assert single[5.0] > FIG6_SINGLE_PLATEAU
    assert full[5.0] > FIG6_FULL_PLATEAU
    # 2. full frames (two preambles) beat single preambles at the knee.
    assert full[-1.0] >= single[-1.0]
    # 3. the lower false-alarm rate costs detection at the knee.
    assert single[-1.0] <= single_loose[-1.0]
