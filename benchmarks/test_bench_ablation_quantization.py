"""Ablation — sign-bit slicing and 3-bit coefficients (DESIGN.md).

The hardware correlator throws away everything but the sign of each
I/Q sample and quantizes its template to 3-bit signed coefficients
(paper Fig. 3).  This bench measures what that costs against an ideal
full-precision normalized correlator on the same frames, at matched
false-alarm rates.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.channel.awgn import awgn
from repro.core.coeffs import wifi_long_preamble_template
from repro.dsp.measure import normalized_cross_correlation
from repro.experiments.detection import (
    _impaired_arrivals,
    threshold_for_false_alarm_rate,
)
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.phy.wifi.preamble import long_training_symbol

SNRS_DB = [-6.0, -3.0, 0.0, 3.0]
N_FRAMES = 250
GUARD = 256


def _float_threshold(template: np.ndarray, fa_per_second: float,
                     rng: np.random.Generator) -> float:
    """Empirical FA threshold for the float correlator on noise."""
    noise = awgn(400_000, 1.0, rng)
    corr = normalized_cross_correlation(noise, template)
    # Pick the quantile whose exceedance rate matches the FA target.
    exceed_prob = fa_per_second / units.BASEBAND_RATE
    return float(np.quantile(corr, 1.0 - max(exceed_prob, 2e-6)))


def _run():
    rng = np.random.default_rng(7)
    template = wifi_long_preamble_template()
    ci, cq = quantize_coefficients(template)
    hw_threshold = threshold_for_false_alarm_rate(ci, cq, 0.083)
    float_threshold = _float_threshold(template, 0.083, rng)
    arrivals = _impaired_arrivals(long_training_symbol())

    results = {"hardware (1-bit in, 3-bit coeff)": [],
               "ideal float correlator": []}
    for snr_db in SNRS_DB:
        scale = np.sqrt(units.db_to_linear(snr_db))
        hw_hits = float_hits = 0
        correlator = CrossCorrelator(ci, cq, threshold=hw_threshold)
        for _ in range(N_FRAMES):
            frame = arrivals[rng.integers(0, len(arrivals))]
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            block = awgn(GUARD + frame.size, 1.0, rng)
            block[GUARD:] += frame * (scale * phase)
            if correlator.detect(block)[0, GUARD:].any():
                hw_hits += 1
            corr = normalized_cross_correlation(block, template)
            if np.any(corr[GUARD:] > float_threshold):
                float_hits += 1
        results["hardware (1-bit in, 3-bit coeff)"].append(hw_hits / N_FRAMES)
        results["ideal float correlator"].append(float_hits / N_FRAMES)
    return results


def test_bench_ablation_quantization(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\nAblation — detection loss from sign-bit/3-bit quantization")
    print("correlator                        " + "".join(
        f"{s:>7.0f}" for s in SNRS_DB) + "   (SNR dB)")
    for label, probs in results.items():
        print(f"{label:<34}" + "".join(f"{p:>7.2f}" for p in probs))

    hw = results["hardware (1-bit in, 3-bit coeff)"]
    ideal = results["ideal float correlator"]
    # The ideal correlator dominates at every SNR (quantization always
    # costs), but the hardware correlator still reaches its plateau.
    for h, f in zip(hw, ideal):
        assert h <= f + 0.05
    assert hw[-1] > 0.9
