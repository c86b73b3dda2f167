"""Correctness of the energy-differentiator kernels.

The moving sums are the sequential cumulative-sum difference, in
place, for any row shape; the streaming :class:`EnergyDifferentiator`
facade takes strided and complex64 chunks as their contiguous
complex128 copies.
"""

from __future__ import annotations

import numpy as np

from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.kernels import moving_sums


class TestMovingSums:
    def test_matches_sequential_cumsum(self):
        rng = np.random.default_rng(0)
        window = 32
        padded = rng.random(window + 500)
        csum = np.cumsum(padded)
        expected = csum[window:] - csum[:-window]
        np.testing.assert_array_equal(
            moving_sums(padded, window, np.empty(500)), expected)
        # The plane holds its cumulative sums afterwards.
        np.testing.assert_array_equal(padded, csum)

    def test_batched_rows_match_row_by_row(self):
        rng = np.random.default_rng(1)
        window = 8
        padded = rng.random((5, window + 100))
        rows = padded.copy()
        batched = moving_sums(padded, window, np.empty((5, 100)))
        for b in range(5):
            np.testing.assert_array_equal(
                batched[b], moving_sums(rows[b], window, np.empty(100)))
        np.testing.assert_array_equal(padded, rows)


class TestOperandLayout:
    """Strided and complex64 samples give the contiguous complex128
    result in the streaming facade."""

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
