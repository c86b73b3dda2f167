"""Tests for the sign-bit cross-correlator (paper Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.fixed_point import sign_bits_iq
from repro.errors import ConfigurationError, StreamError
from repro.hw.cross_correlator import (
    METRIC_MAX,
    CrossCorrelator,
    quantize_coefficients,
)
from repro.hw.register_map import CORRELATOR_LENGTH


def reference_metric(signal: np.ndarray, coeffs_i: np.ndarray,
                     coeffs_q: np.ndarray) -> np.ndarray:
    """Slow but obviously-correct metric for cross-checking."""
    si, sq = sign_bits_iq(signal)
    si = si.astype(np.int64)
    sq = sq.astype(np.int64)
    n = signal.size
    out = np.zeros(n, dtype=np.int64)
    for end in range(n):
        re = im = 0
        for k in range(CORRELATOR_LENGTH):
            idx = end - (CORRELATOR_LENGTH - 1) + k
            if idx < 0:
                continue  # reset history contributes zero
            re += coeffs_i[k] * si[idx] + coeffs_q[k] * sq[idx]
            im += coeffs_i[k] * sq[idx] - coeffs_q[k] * si[idx]
        out[end] = re * re + im * im
    return out


@pytest.fixture
def template(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, CORRELATOR_LENGTH))


class TestQuantizeCoefficients:
    def test_three_bit_range(self, template):
        ci, cq = quantize_coefficients(template)
        assert ci.min() >= -4 and ci.max() <= 3
        assert cq.min() >= -4 and cq.max() <= 3

    def test_length(self, template):
        ci, cq = quantize_coefficients(template)
        assert ci.size == 64 and cq.size == 64

    def test_peak_maps_to_max(self):
        template = np.zeros(64, dtype=complex)
        template[0] = 1.0
        ci, cq = quantize_coefficients(template)
        assert ci[0] == 3

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            quantize_coefficients(np.ones(63, dtype=complex))

    def test_rejects_zero_template(self):
        with pytest.raises(ConfigurationError):
            quantize_coefficients(np.zeros(64, dtype=complex))


class TestCrossCorrelator:
    def test_matches_reference_implementation(self, rng, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        signal = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        (fast,) = corr.metric(signal)
        slow = reference_metric(signal, ci, cq)
        assert np.array_equal(fast, slow)

    def test_chunked_equals_single_shot(self, rng, template):
        ci, cq = quantize_coefficients(template)
        signal = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        whole = CrossCorrelator(ci, cq).metric(signal)
        chunked = CrossCorrelator(ci, cq)
        parts = [chunked.metric(signal[i:i + 61]) for i in range(0, 500, 61)]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)

    def test_peak_at_template_end(self, rng, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        signal = 0.001 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        signal[100:164] += template
        (metric,) = corr.metric(signal)
        assert int(np.argmax(metric)) == 163

    def test_detection_latency_is_64_samples(self, rng, template):
        # T_xcorr_det: the trigger fires exactly when the 64th template
        # sample arrives (2.56 us at 25 MSPS).
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq, threshold=30_000)
        signal = 0.001 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        signal[100:164] += template
        (trig,) = corr.detect(signal)
        first = int(np.flatnonzero(trig)[0])
        assert first == 100 + CORRELATOR_LENGTH - 1

    def test_metric_bounded(self, rng, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        signal = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        assert np.max(corr.metric(signal)) <= METRIC_MAX

    def test_threshold_setter_validation(self, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        with pytest.raises(ConfigurationError):
            corr.threshold = -1
        with pytest.raises(ConfigurationError):
            corr.threshold = 1 << 32

    def test_runtime_coefficient_reload(self, rng, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq, threshold=30_000)
        other = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        signal = 0.001 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        signal[50:114] += other
        # Template mismatch: no trigger.
        assert not corr.detect(signal).any()
        # Reload for the other signal: triggers.
        corr.reset()
        oi, oq = quantize_coefficients(other)
        corr.load_bank(0, oi, oq)
        assert corr.detect(signal).any()

    def test_coefficients_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossCorrelator(np.full(64, 5), np.zeros(64))

    def test_missing_bank_rejected(self):
        corr = CrossCorrelator()
        with pytest.raises(ConfigurationError):
            corr.load_bank(0, np.zeros(64), None)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            CrossCorrelator(np.zeros(32), np.zeros(32))

    def test_2d_input_rejected(self, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        with pytest.raises(StreamError):
            corr.metric(np.zeros((4, 4), dtype=complex))

    def test_empty_chunk(self, template):
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq)
        assert corr.metric(np.zeros(0, dtype=complex)).size == 0

    def test_phase_rotation_tolerated_within_90deg_resolution(self, rng, template):
        # The sign slicer quantizes phase to 90 degrees; a match still
        # clears a mid-level threshold at any carrier phase.
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq, threshold=20_000)
        for phase in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            corr.reset()
            signal = 0.001 * (rng.standard_normal(200)
                              + 1j * rng.standard_normal(200))
            signal[64:128] += template * np.exp(1j * phase)
            assert corr.detect(signal).any(), f"missed at phase {phase:.2f}"

    def test_scale_invariance_of_sign_slicing(self, rng, template):
        ci, cq = quantize_coefficients(template)
        signal = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        a = CrossCorrelator(ci, cq).metric(signal)
        b = CrossCorrelator(ci, cq).metric(signal * 1000.0)
        assert np.array_equal(a, b)
