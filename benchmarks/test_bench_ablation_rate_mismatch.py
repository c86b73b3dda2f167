"""Ablation — the 20/25 MSPS sampling-rate mismatch (DESIGN.md).

The paper blames its reduced long-preamble detection on "the sampling
rate mismatch between the correlator and the RF signal".  This bench
quantifies the effect by comparing three template choices against the
same received frames:

* **resampled**: the code converted to 25 MSPS and truncated to the
  64-sample window (our default, the mismatch-aware host),
* **native**: the 64 code samples at 20 MSPS loaded verbatim, so the
  coefficient grid drifts 20 % per sample against the signal (the
  worst-case naive host),
* and the same comparison for the short-preamble template, whose short
  cyclic code tolerates the mismatch.
"""

from __future__ import annotations

from repro.core.coeffs import (
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.experiments.detection import _detection_curve

SNRS_DB = [0.0, 3.0, 6.0, 12.0]
N_FRAMES = 250


def _run():
    out = {}
    for label, template, kind in (
        ("long/resampled", wifi_long_preamble_template(True), "single_long"),
        ("long/native", wifi_long_preamble_template(False), "single_long"),
        ("short/resampled", wifi_short_preamble_template(True), "full"),
        ("short/native", wifi_short_preamble_template(False), "full"),
    ):
        out[label] = _detection_curve(template, kind, SNRS_DB, N_FRAMES,
                                      fa_per_second=0.083, seed=99)
    return out


def test_bench_ablation_rate_mismatch(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\nAblation — correlator template vs the 20/25 MSPS mismatch")
    print("template            " + "".join(f"{s:>7.0f}" for s in SNRS_DB)
          + "   (SNR dB)")
    for label, points in curves.items():
        row = "".join(f"{p.detection_probability:>7.2f}" for p in points)
        print(f"{label:<20}{row}")

    final = {label: points[-1].detection_probability
             for label, points in curves.items()}
    knee = {label: points[0].detection_probability
            for label, points in curves.items()}
    # The mismatch-aware (resampled) templates detect essentially
    # everything at high SNR; the naive native-rate templates collapse
    # completely — the full-strength version of the impairment the
    # paper describes.
    assert final["long/resampled"] > 0.9
    assert final["short/resampled"] > 0.9
    assert final["long/native"] < 0.2
    assert final["short/native"] < 0.2
    # At the knee the short template's repeating code out-detects the
    # truncated long code — the paper's Fig. 7 > Fig. 6 ordering.
    assert knee["short/resampled"] > knee["long/resampled"]
