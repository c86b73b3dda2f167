"""Ablation — analog front-end impairments vs detection performance.

The paper's long-preamble detection sits near 50-75 % in its measured
SNR range and blames front-end behaviour ("dynamic range
characteristics ... quantization of both the phase and amplitude").
Our clean model saturates at 100 % above ~3 dB (EXPERIMENTS.md,
Fig. 6 deviation).  This bench turns on uncalibrated-N210 impairment
profiles — DC offset, IQ imbalance, residual CFO — and quantifies the
detection cost, closing the loop on that explanation: analog dirt
shifts the knee several dB, putting mid-SNR detection right where the
paper measured it.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.channel.awgn import awgn
from repro.core.coeffs import wifi_long_preamble_template
from repro.experiments.detection import (
    _impaired_arrivals,
    threshold_for_false_alarm_rate,
)
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.hw.impairments import TYPICAL_N210, FrontEndImpairments
from repro.hw.trigger import rising_edges
from repro.phy.wifi.preamble import long_training_symbol

SNRS_DB = [0.0, 3.0, 6.0, 12.0, 20.0]
N_FRAMES = 250
GUARD = 256

#: A deliberately filthy front end (strong DC spur + heavy IQ error)
#: to bound the effect from above.
DIRTY = FrontEndImpairments(dc_offset=0.08 + 0.06j,
                            iq_gain_imbalance_db=2.0,
                            iq_phase_error_deg=15.0,
                            cfo_hz=30e3)


def _detection_with_impairments(impairments: FrontEndImpairments | None,
                                seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    template = wifi_long_preamble_template()
    ci, cq = quantize_coefficients(template)
    threshold = threshold_for_false_alarm_rate(ci, cq, 0.083)
    arrivals = _impaired_arrivals(long_training_symbol())
    probs = []
    for snr_db in SNRS_DB:
        # Scale against a noise floor far below full scale so the DC
        # spur (a full-scale-relative quantity) dominates noise, as on
        # real hardware.
        noise_amp = 0.05
        scale = noise_amp * np.sqrt(units.db_to_linear(snr_db))
        correlator = CrossCorrelator(ci, cq, threshold=threshold)
        hits = 0
        last = False
        for _ in range(N_FRAMES):
            frame = arrivals[rng.integers(0, len(arrivals))]
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            block = awgn(GUARD + frame.size, noise_amp ** 2, rng)
            block[GUARD:] += frame * (scale * phase)
            if impairments is not None:
                block = impairments.apply(block)
            (trig,) = correlator.process(block)
            edges = rising_edges(trig, last)
            last = bool(trig[-1])
            if edges[edges >= GUARD].size:
                hits += 1
        probs.append(hits / N_FRAMES)
    return probs


def _run():
    return {
        "ideal front end": _detection_with_impairments(None, 31),
        "typical N210": _detection_with_impairments(TYPICAL_N210, 31),
        "dirty front end": _detection_with_impairments(DIRTY, 31),
    }


def test_bench_ablation_impairments(benchmark):
    curves = benchmark.pedantic(_run, rounds=1, iterations=1)

    print("\nAblation — front-end impairments vs long-preamble detection")
    print("front end           " + "".join(f"{s:>7.0f}" for s in SNRS_DB)
          + "   (SNR dB)")
    for label, probs in curves.items():
        print(f"{label:<20}" + "".join(f"{p:>7.2f}" for p in probs))
    print("impairments shift the detection knee several dB to the right;")
    print("in the 0-8 dB window where the paper reports ~50 % detection a")
    print("dirty chain sits exactly there (the fixed DC spur is eventually")
    print("out-scaled by the signal, so the shift fades at very high SNR)")

    ideal = curves["ideal front end"]
    typical = curves["typical N210"]
    dirty = curves["dirty front end"]
    # Everything saturates eventually (the spur is fixed, the signal
    # is not), but severity orders the curves at every finite point.
    assert ideal[-1] == 1.0
    for i, t, d in zip(ideal, typical, dirty):
        assert d <= t + 0.05 and t <= i + 0.05
    # At the paper's mid-SNR operating region the dirty chain detects
    # about half the frames — the paper's plateau value.
    assert dirty[2] < 0.6 < ideal[2]
