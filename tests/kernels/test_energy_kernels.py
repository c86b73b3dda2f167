"""Correctness of the batched energy-differentiator kernels.

The ground truth is the streaming :class:`EnergyDifferentiator`
facade; the batched kernel must match it byte-for-byte including the
float64 tail stitching (float prefixes do not cancel, so this is a
real constraint, not a formality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError
from repro.hw.energy_differentiator import (
    DEFAULT_DELAY,
    DEFAULT_WINDOW,
    EnergyDifferentiator,
)
from repro.kernels import edge_mask, energy_detect_batch, moving_sums


def _linear(db):
    return 10.0 ** (db / 10.0)


class TestMovingSums:
    def test_matches_sequential_cumsum(self):
        rng = np.random.default_rng(0)
        window = 32
        padded = rng.random(window + 500)
        csum = np.cumsum(padded)
        expected = csum[window:] - csum[:-window]
        np.testing.assert_array_equal(
            moving_sums(padded, window, np.empty(500), np.empty_like(padded)),
            expected)

    def test_batched_rows_match_row_by_row(self):
        rng = np.random.default_rng(1)
        window = 8
        padded = rng.random((5, window + 100))
        batched = moving_sums(padded, window, np.empty((5, 100)),
                              np.empty_like(padded))
        for b in range(5):
            np.testing.assert_array_equal(
                batched[b], moving_sums(padded[b], window, np.empty(100),
                                        np.empty_like(padded[b])))


class TestEnergyDetectBatch:
    def _stream_reference(self, rows, lengths, threshold_db):
        detector = EnergyDifferentiator(threshold_high_db=threshold_db,
                                        threshold_low_db=threshold_db)
        outs = []
        last = np.zeros(2, dtype=bool)
        for row, length in zip(rows, lengths):
            trig_high, trig_low = trigger = detector.detect(row[:length])
            edges_high, edges_low = edge_mask(trigger, last)
            last = trigger[:, -1].copy()
            outs.append((trig_high, trig_low,
                         int(edges_high.sum()), int(edges_low.sum())))
        return outs, detector

    @pytest.mark.parametrize("lengths", [
        [400, 400, 400],            # every row full: one slice, no mask
        [400, 150, 399, 64],        # ragged: per-row gather
        [300, 300, 300, 120],       # equal but the last row, padded
    ])
    def test_byte_identical_to_streaming(self, lengths):
        rng = np.random.default_rng(2)
        lengths = np.asarray(lengths, dtype=np.int64)
        width = 400
        batch = lengths.size
        blocks = rng.normal(size=(batch, width)) \
            + 1j * rng.normal(size=(batch, width))
        # A burst so the thresholds actually fire.
        blocks[1, 50:90] *= 6.0
        threshold_db = 6.0
        thr = _linear(threshold_db)

        result = energy_detect_batch(blocks, lengths,
                                     DEFAULT_WINDOW, DEFAULT_DELAY,
                                     thr, thr)
        outs, detector = self._stream_reference(blocks, lengths,
                                                threshold_db)
        for b, length in enumerate(lengths):
            trig_high, trig_low, n_high, n_low = outs[b]
            np.testing.assert_array_equal(
                result.trigger_high[b, :length], trig_high)
            np.testing.assert_array_equal(
                result.trigger_low[b, :length], trig_low)
            assert int(result.edge_high[b].sum()) == n_high
            assert int(result.edge_low[b].sum()) == n_low
        np.testing.assert_array_equal(result.energy_tail,
                                      detector._energy_tail)
        np.testing.assert_array_equal(result.sum_tail,
                                      detector._sum_tail)

    def test_short_rows_fall_back_to_sequential_stitch(self):
        """Rows shorter than the tails still chain bit-exactly."""
        rng = np.random.default_rng(3)
        lengths = np.array([300, 10, 3, 300], dtype=np.int64)
        blocks = rng.normal(size=(4, 300)) \
            + 1j * rng.normal(size=(4, 300))
        thr = _linear(6.0)
        result = energy_detect_batch(blocks, lengths,
                                     DEFAULT_WINDOW, DEFAULT_DELAY,
                                     thr, thr)
        outs, detector = self._stream_reference(blocks, lengths, 6.0)
        for b, length in enumerate(lengths):
            trig_high, trig_low, _, _ = outs[b]
            np.testing.assert_array_equal(
                result.trigger_high[b, :length], trig_high)
            np.testing.assert_array_equal(
                result.trigger_low[b, :length], trig_low)
        np.testing.assert_array_equal(result.energy_tail,
                                      detector._energy_tail)
        np.testing.assert_array_equal(result.sum_tail,
                                      detector._sum_tail)

    def test_carry_state_chains_across_calls(self):
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(6, 200)) \
            + 1j * rng.normal(size=(6, 200))
        lengths = np.full(6, 200, dtype=np.int64)
        thr = _linear(6.0)

        whole = energy_detect_batch(blocks, lengths,
                                    DEFAULT_WINDOW, DEFAULT_DELAY,
                                    thr, thr)
        first = energy_detect_batch(blocks[:2], lengths[:2],
                                    DEFAULT_WINDOW, DEFAULT_DELAY,
                                    thr, thr)
        second = energy_detect_batch(blocks[2:], lengths[2:],
                                     DEFAULT_WINDOW, DEFAULT_DELAY,
                                     thr, thr,
                                     energy_tail=first.energy_tail,
                                     sum_tail=first.sum_tail,
                                     last_high=first.last_high,
                                     last_low=first.last_low)
        np.testing.assert_array_equal(
            np.vstack([first.edge_high, second.edge_high]),
            whole.edge_high)
        np.testing.assert_array_equal(
            np.vstack([first.edge_low, second.edge_low]),
            whole.edge_low)
        np.testing.assert_array_equal(second.energy_tail,
                                      whole.energy_tail)
        np.testing.assert_array_equal(second.sum_tail, whole.sum_tail)
        assert second.last_high == whole.last_high
        assert second.last_low == whole.last_low

    def test_rejects_bad_shapes(self):
        with pytest.raises(StreamError):
            energy_detect_batch(np.zeros(8, dtype=complex),
                                np.array([8]), 4, 8, 2.0, 2.0)
        with pytest.raises(StreamError):
            energy_detect_batch(np.zeros((2, 8), dtype=complex),
                                np.array([8, 9]), 4, 8, 2.0, 2.0)


class TestOperandLayout:
    """Strided and complex64 samples give the contiguous complex128
    result, in the streaming facade and in the batch kernel."""

    @staticmethod
    def _samples(rng, shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            .astype(np.complex64)

    def test_facade_takes_strided_and_complex64_chunks(self):
        rng = np.random.default_rng(5)
        wide = self._samples(rng, 1200)
        wide[300:400] *= 8
        strided = wide[::2]
        reference = EnergyDifferentiator(threshold_high_db=6.0)
        detectors = [EnergyDifferentiator(threshold_high_db=6.0)
                     for _ in range(2)]
        for start in range(0, strided.size, 150):
            expected = reference.detect(
                strided[start:start + 150].astype(np.complex128))
            np.testing.assert_array_equal(
                detectors[0].detect(strided[start:start + 150]), expected)
            np.testing.assert_array_equal(
                detectors[1].detect(
                    np.ascontiguousarray(strided[start:start + 150])),
                expected)
        sums = EnergyDifferentiator().energy_sums(wide[1::3])
        np.testing.assert_array_equal(
            sums, EnergyDifferentiator().energy_sums(
                wide[1::3].astype(np.complex128)))

    def test_batch_takes_strided_and_complex64_blocks(self):
        rng = np.random.default_rng(6)
        wide = self._samples(rng, (3, 600))
        wide[1, 100:160] *= 8
        lengths = np.array([300, 120, 300], dtype=np.int64)
        thr = _linear(6.0)
        expected = energy_detect_batch(
            wide[:, ::2].astype(np.complex128), lengths,
            DEFAULT_WINDOW, DEFAULT_DELAY, thr, thr)
        assert expected.edge_high.any()
        for blocks in (wide[:, ::2], np.ascontiguousarray(wide[:, ::2])):
            result = energy_detect_batch(blocks, lengths, DEFAULT_WINDOW,
                                         DEFAULT_DELAY, thr, thr)
            for name in ("trigger_high", "trigger_low", "edge_high",
                         "edge_low", "energy_tail", "sum_tail"):
                np.testing.assert_array_equal(getattr(result, name),
                                              getattr(expected, name))
