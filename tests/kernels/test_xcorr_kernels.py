"""Correctness of the fused sign-bit correlation kernels, one bank.

The ground truth throughout is the seed model's four-pass
``np.correlate`` evaluation over the sign-sliced stream (and an int64
brute force straight off Fig. 3); the fused and batched kernels must
reproduce it byte-for-byte, for any chunking of the same stream.  The
one-bank case is the K=1 case of the one K-bank kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, StreamError
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.kernels import (
    clamped_thresholds,
    edge_mask,
    metric_ceiling,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
    xcorr_detect_batch,
    xcorr_metric,
)

TAPS = 64


def _random_bank(rng, taps=TAPS):
    return (rng.integers(-4, 4, taps), rng.integers(-4, 4, taps))


def _reference_metric(samples, ci, cq, history=None):
    """The seed datapath: sign slice, four np.correlate passes, square."""
    sign_i = np.where(np.real(samples) < 0, -1, 1).astype(np.int64)
    sign_q = np.where(np.imag(samples) < 0, -1, 1).astype(np.int64)
    pairs = ci.size - 1
    hist_i = np.zeros(pairs, dtype=np.int64)
    hist_q = np.zeros(pairs, dtype=np.int64)
    if history is not None:
        hist_i = history[0::2].astype(np.int64)
        hist_q = history[1::2].astype(np.int64)
    full_i = np.concatenate([hist_i, sign_i])
    full_q = np.concatenate([hist_q, sign_q])
    corr_re = (np.correlate(full_i, ci, mode="valid")
               + np.correlate(full_q, cq, mode="valid"))
    corr_im = (np.correlate(full_q, ci, mode="valid")
               - np.correlate(full_i, cq, mode="valid"))
    return corr_re * corr_re + corr_im * corr_im


def _brute_metric(plane, ci, cq):
    """Int64 brute force straight off the Fig. 3 datapath."""
    taps = ci.size
    sign_i = plane[0::2].astype(np.int64)
    sign_q = plane[1::2].astype(np.int64)
    n = sign_i.size - (taps - 1)
    out = np.empty(n, dtype=np.int64)
    for t in range(n):
        wi = sign_i[t:t + taps]
        wq = sign_q[t:t + taps]
        corr_re = int(np.dot(ci, wi) + np.dot(cq, wq))
        corr_im = int(np.dot(ci, wq) - np.dot(cq, wi))
        out[t] = corr_re * corr_re + corr_im * corr_im
    return out


def _prepare(ci, cq):
    """The one-bank operand: the K=1 case of the K-bank kernel."""
    return prepare_coefficients([(ci, cq)])


def _plane_with_history(samples, pairs, history=None):
    plane = np.empty(2 * (pairs + samples.size), dtype=np.int8)
    plane[:2 * pairs] = 0 if history is None else history
    sign_plane(samples, out=plane[2 * pairs:])
    return plane


class TestPrepareCoefficients:
    def test_stacked_layout(self):
        prepared = _prepare([1, -2], [3, 0])
        np.testing.assert_array_equal(
            prepared.stacked,
            [[1, -3], [3, 1], [-2, 0], [0, -2]])
        assert prepared.taps == 2
        assert prepared.history_pairs == 1

    def test_three_bit_bank_runs_in_float32(self):
        rng = np.random.default_rng(0)
        prepared = _prepare(*_random_bank(rng))
        assert prepared.gemm_dtype == np.float32

    def test_wide_bank_falls_back_to_float64(self):
        ci = np.full(64, 1 << 10)
        prepared = _prepare(ci, ci)
        assert prepared.gemm_dtype == np.float64

    def test_rejects_mismatched_banks(self):
        with pytest.raises(ConfigurationError):
            _prepare([1, 2], [1, 2, 3])

    def test_rejects_empty_banks(self):
        with pytest.raises(ConfigurationError):
            _prepare([], [])

    def test_matrices_are_frozen(self):
        prepared = _prepare([1, 2], [3, 4])
        with pytest.raises(ValueError):
            prepared.band[0, 0] = 9.0


class TestSignPlane:
    def test_interleaves_and_maps_zero_positive(self):
        samples = np.array([1 - 2j, -3 + 0j, 0 + 0j])
        np.testing.assert_array_equal(
            sign_plane(samples), [1, -1, -1, 1, 1, 1])

    def test_out_shape_is_validated(self):
        with pytest.raises(StreamError):
            sign_plane(np.zeros(4, dtype=complex),
                       out=np.empty(7, dtype=np.int8))


class TestXcorrMetric:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 500])
    def test_matches_reference(self, n):
        rng = np.random.default_rng(n)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        plane = _plane_with_history(samples, prepared.history_pairs)
        np.testing.assert_array_equal(
            xcorr_metric(plane, prepared)[0],
            _reference_metric(samples, ci, cq))

    def test_metric_dtype_is_int64(self):
        rng = np.random.default_rng(1)
        prepared = _prepare(*_random_bank(rng))
        samples = rng.normal(size=100) + 1j * rng.normal(size=100)
        plane = _plane_with_history(samples, prepared.history_pairs)
        assert xcorr_metric(plane, prepared).dtype == np.int64

    def test_chunk_size_invariance(self):
        """Any chunking of the same stream yields the same metrics."""
        rng = np.random.default_rng(2)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        pairs = prepared.history_pairs
        stream = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        whole = xcorr_metric(
            _plane_with_history(stream, pairs), prepared)[0]
        for sizes in ([1000], [1, 999], [63, 64, 873], [100] * 10):
            history = np.zeros(2 * pairs, dtype=np.int8)
            got = []
            start = 0
            for size in sizes:
                chunk = stream[start:start + size]
                plane = _plane_with_history(chunk, pairs, history)
                got.append(xcorr_metric(plane, prepared)[0])
                history = plane[2 * chunk.size:].copy()
                start += size
            np.testing.assert_array_equal(np.concatenate(got), whole)

    def test_facade_matches_reference(self):
        rng = np.random.default_rng(3)
        ci, cq = _random_bank(rng)
        correlator = CrossCorrelator(ci, cq, threshold=1000)
        samples = rng.normal(size=300) + 1j * rng.normal(size=300)
        np.testing.assert_array_equal(
            correlator.metric(samples)[0],
            _reference_metric(samples, ci, cq))

    def test_paper_bank_matches_reference(self):
        from repro.core.coeffs import wifi_long_preamble_template

        rng = np.random.default_rng(4)
        ci, cq = quantize_coefficients(wifi_long_preamble_template())
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=2048) + 1j * rng.normal(size=2048)
        plane = _plane_with_history(samples, prepared.history_pairs)
        np.testing.assert_array_equal(
            xcorr_metric(plane, prepared)[0],
            _reference_metric(samples, ci, cq))


class TestXcorrDetect:
    def test_fused_stream_matches_parts(self):
        rng = np.random.default_rng(5)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        samples = rng.normal(size=400) + 1j * rng.normal(size=400)
        plane = _plane_with_history(samples, prepared.history_pairs)
        metric = xcorr_metric(plane, prepared)[0]
        threshold = int(np.percentile(metric, 90))
        (trigger,) = xcorr_detect(plane, prepared,
                                  clamped_thresholds(prepared, [threshold]))
        np.testing.assert_array_equal(trigger, metric > threshold)
        expected_edges = np.flatnonzero(
            np.diff(np.concatenate([[False], metric > threshold])
                    .astype(np.int8)) > 0)
        np.testing.assert_array_equal(
            np.flatnonzero(edge_mask(trigger, False)), expected_edges)

    def test_out_receives_the_trigger_rows(self):
        # 301 samples: the last GEMM row is partial.
        rng = np.random.default_rng(12)
        prepared = _prepare(*_random_bank(rng))
        samples = rng.normal(size=301) + 1j * rng.normal(size=301)
        plane = _plane_with_history(samples, prepared.history_pairs)
        limits = clamped_thresholds(prepared, [20_000])
        stacked = np.ones((3, 301), dtype=bool)
        assert xcorr_detect(plane, prepared, limits,
                            out=stacked[:1]).base is stacked
        np.testing.assert_array_equal(
            stacked[:1], xcorr_detect(plane, prepared, limits))
        assert stacked[1:].all()
        with pytest.raises(StreamError):
            xcorr_detect(plane, prepared, limits,
                         out=np.empty((1, 602), dtype=bool)[:, ::2])


def _ceiling_stream(n=600):
    """Random signs with one run of 1+1j signs, which scores a
    real-coefficient bank's ceiling."""
    rng = np.random.default_rng(13)
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    samples[200:264] = 1 + 1j
    return samples


class TestClampedCompare:
    """The GEMM-dtype compare equals the int64 compare at the edges."""

    @pytest.mark.parametrize("coeff, dtype", [(3, np.float32),
                                              (1 << 10, np.float64)])
    def test_float_compare_equals_int64_compare(self, coeff, dtype):
        ci = np.full(TAPS, coeff, dtype=np.int64)
        cq = np.zeros(TAPS, dtype=np.int64)
        prepared = _prepare(ci, cq)
        assert prepared.gemm_dtype == dtype
        ceiling = metric_ceiling(ci, cq)
        plane = _plane_with_history(_ceiling_stream(),
                                    prepared.history_pairs)
        metric = xcorr_metric(plane, prepared)[0]
        assert metric.max() == ceiling
        for threshold in (ceiling - 1, ceiling, ceiling + 1, 1 << 24,
                          (1 << 32) - 1):
            limits = clamped_thresholds(prepared, [threshold])
            assert limits.dtype == dtype
            (trigger,) = xcorr_detect(plane, prepared, limits)
            np.testing.assert_array_equal(trigger, metric > threshold)
        assert xcorr_detect(plane, prepared, clamped_thresholds(
            prepared, [ceiling - 1])).any()

    def test_thresholds_clamp_to_each_bank_ceiling(self):
        rng = np.random.default_rng(14)
        banks = [_random_bank(rng), _random_bank(rng)]
        prepared = prepare_coefficients(banks)
        limits = clamped_thresholds(prepared, [5, (1 << 32) - 1])
        assert limits.tolist() == [5, prepared.ceilings[1]]
        with pytest.raises(ConfigurationError):
            clamped_thresholds(prepared, [5])


class TestXcorrDetectBatch:
    def _stream_reference(self, rows, lengths, prepared, threshold):
        """Feed the rows one by one through the streaming kernel."""
        pairs = prepared.history_pairs
        limits = clamped_thresholds(prepared, [threshold])
        history = np.zeros(2 * pairs, dtype=np.int8)
        last = np.zeros(1, dtype=bool)
        triggers, edge_counts = [], []
        for row, length in zip(rows, lengths):
            chunk = row[:length]
            plane = _plane_with_history(chunk, pairs, history)
            trigger = xcorr_detect(plane, prepared, limits)
            history = plane[2 * chunk.size:].copy()
            edge_counts.append(int(edge_mask(trigger, last).sum()))
            last = trigger[:, -1].copy()
            triggers.append(trigger[0])
        return triggers, edge_counts, history, last

    def test_byte_identical_to_streaming(self):
        rng = np.random.default_rng(6)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        width = 300
        lengths = np.array([300, 150, 64, 300, 299], dtype=np.int64)
        blocks = rng.normal(size=(5, width)) \
            + 1j * rng.normal(size=(5, width))
        metric_all = _reference_metric(
            np.concatenate([blocks[b, :lengths[b]] for b in range(5)]),
            ci, cq)
        threshold = int(np.percentile(metric_all, 85))

        result = xcorr_detect_batch(blocks, lengths, prepared, [threshold])
        triggers, edge_counts, history, last = self._stream_reference(
            blocks, lengths, prepared, threshold)

        for b, length in enumerate(lengths):
            np.testing.assert_array_equal(
                result.trigger[b, 0, :length], triggers[b])
            assert int(result.edge_plane[b].sum()) == edge_counts[b]
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    @pytest.mark.parametrize("lengths", [
        [300, 300, 300, 300, 300],  # every row full: no length mask
        [250, 250, 250, 250, 250],  # equal and padded: masked
        [300, 300, 300, 300, 37],   # equal but the last row
    ])
    def test_equal_rows_stitch_by_slice(self, lengths):
        """Equal-length rows (one slice per carry) match streaming."""
        rng = np.random.default_rng(9)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        lengths = np.array(lengths, dtype=np.int64)
        blocks = rng.normal(size=(5, 300)) \
            + 1j * rng.normal(size=(5, 300))
        metric_all = _reference_metric(
            np.concatenate([blocks[b, :lengths[b]] for b in range(5)]),
            ci, cq)
        threshold = int(np.percentile(metric_all, 85))
        result = xcorr_detect_batch(blocks, lengths, prepared, [threshold])
        triggers, edge_counts, history, last = self._stream_reference(
            blocks, lengths, prepared, threshold)
        for b, length in enumerate(lengths):
            np.testing.assert_array_equal(
                result.trigger[b, 0, :length], triggers[b])
            assert int(result.edge_plane[b].sum()) == edge_counts[b]
            assert not result.edge_plane[b, :, length:].any()
        assert sum(edge_counts) > 0
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    def test_short_rows_fall_back_to_sequential_stitch(self):
        """Rows shorter than the history depth still chain exactly."""
        rng = np.random.default_rng(7)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        lengths = np.array([200, 5, 3, 200], dtype=np.int64)
        blocks = rng.normal(size=(4, 200)) \
            + 1j * rng.normal(size=(4, 200))
        threshold = 100_000
        result = xcorr_detect_batch(blocks, lengths, prepared, [threshold])
        triggers, edge_counts, history, last = self._stream_reference(
            blocks, lengths, prepared, threshold)
        for b, length in enumerate(lengths):
            np.testing.assert_array_equal(
                result.trigger[b, 0, :length], triggers[b])
            assert int(result.edge_plane[b].sum()) == edge_counts[b]
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    def test_carry_state_chains_across_calls(self):
        """Splitting a batch into two calls with carried state is exact."""
        rng = np.random.default_rng(8)
        ci, cq = _random_bank(rng)
        prepared = _prepare(ci, cq)
        blocks = rng.normal(size=(6, 128)) \
            + 1j * rng.normal(size=(6, 128))
        lengths = np.full(6, 128, dtype=np.int64)
        threshold = [50_000]

        whole = xcorr_detect_batch(blocks, lengths, prepared, threshold)
        first = xcorr_detect_batch(blocks[:3], lengths[:3], prepared,
                                   threshold)
        second = xcorr_detect_batch(blocks[3:], lengths[3:], prepared,
                                    threshold, history=first.history,
                                    last=first.last)
        np.testing.assert_array_equal(
            np.vstack([first.edge_plane, second.edge_plane]),
            whole.edge_plane)
        np.testing.assert_array_equal(second.history, whole.history)
        np.testing.assert_array_equal(second.last, whole.last)

    def test_rejects_bad_shapes(self):
        prepared = _prepare([1, 2], [3, 4])
        with pytest.raises(StreamError):
            xcorr_detect_batch(np.zeros(8, dtype=complex),
                               np.array([8]), prepared, [0])
        with pytest.raises(StreamError):
            xcorr_detect_batch(np.zeros((2, 8), dtype=complex),
                               np.array([8, 9]), prepared, [0])
        with pytest.raises(StreamError):
            xcorr_detect_batch(np.zeros((2, 8), dtype=complex),
                               np.array([8, 0]), prepared, [0])


#: Small banks keep the brute force cheap while exercising every
#: alignment of the windowed GEMM.
bank_and_plane = st.integers(min_value=2, max_value=12).flatmap(
    lambda taps: st.tuples(
        st.lists(st.integers(-4, 3), min_size=taps, max_size=taps),
        st.lists(st.integers(-4, 3), min_size=taps, max_size=taps),
        st.lists(st.sampled_from([-1, 0, 1]),
                 min_size=2 * taps, max_size=2 * (taps + 40)),
    )
)


class TestAgainstBruteForce:
    @given(bank_and_plane)
    @settings(max_examples=60, deadline=None)
    def test_metric_matches_brute_force(self, case):
        ci_list, cq_list, plane_list = case
        ci = np.array(ci_list, dtype=np.int64)
        cq = np.array(cq_list, dtype=np.int64)
        # Round the plane down to whole I/Q pairs.
        plane = np.array(plane_list[:len(plane_list) & ~1],
                         dtype=np.int8)
        if plane.size // 2 < ci.size:
            plane = np.pad(plane, (0, 2 * ci.size - plane.size))
        got = xcorr_metric(plane, _prepare(ci, cq))[0]
        np.testing.assert_array_equal(got, _brute_metric(plane, ci, cq))

    def test_paper_shape_matches_brute_force(self):
        rng = np.random.default_rng(9)
        ci = rng.integers(-4, 4, 64)
        cq = rng.integers(-4, 4, 64)
        plane = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=2 * (63 + 777))
        np.testing.assert_array_equal(
            xcorr_metric(plane, _prepare(ci, cq))[0],
            _brute_metric(plane, ci, cq))
