"""Correctness of the stacked multi-bank correlation kernels.

The invariant under test throughout: bank ``k`` of one stacked pass is
byte-identical to an independent single-bank correlator holding only
bank ``k`` — metric plane, trigger plane, edge lists, and carry state.
The prepare step's memoization (bank fingerprints, thresholds) is
pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import (
    prepare_coefficients,
    prepare_stacked,
    sign_plane,
    stacked_bank_program,
    xcorr_detect,
    xcorr_detect_stacked,
    xcorr_metric,
    xcorr_metric_stacked,
)
from repro.kernels.xcorr import STACKED_WINDOWS
from repro.runtime.cache import DEFAULT_CACHE

TAPS = 64


def _random_banks(rng, n_banks, taps=TAPS):
    return [(rng.integers(-4, 4, taps), rng.integers(-4, 4, taps))
            for _ in range(n_banks)]


def _plane(rng, n, history_pairs):
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    history = rng.choice(np.array([-1, 1], dtype=np.int8),
                         size=2 * history_pairs)
    return np.concatenate([history, sign_plane(samples)])


class TestPrepareStacked:
    def test_rejects_empty_and_ragged_banks(self):
        with pytest.raises(ConfigurationError):
            prepare_stacked([])
        with pytest.raises(ConfigurationError):
            prepare_stacked([(np.ones(4), np.ones(5))])
        with pytest.raises(ConfigurationError):
            prepare_stacked([(np.zeros(0), np.zeros(0))])

    def test_shapes_and_padding(self):
        rng = np.random.default_rng(0)
        banks = [(rng.integers(-4, 4, 5), rng.integers(-4, 4, 5)),
                 (rng.integers(-4, 4, 8), rng.integers(-4, 4, 8))]
        coeffs = prepare_stacked(banks)
        assert coeffs.taps == 8
        assert coeffs.n_banks == 2
        assert coeffs.bank_taps == (5, 8)
        assert coeffs.stacked.shape == (16, 4)
        # Front padding: the short bank's first 3 pairs are zero.
        assert not coeffs.stacked[:6, 0:2].any()
        # One GEMM row: S windows reading S + 7 pairs, 2K columns each.
        windows = STACKED_WINDOWS
        assert coeffs.band.shape == (2 * (windows + 7), 2 * 2 * windows)

    def test_repeat_call_is_a_cache_hit_returning_same_instance(self):
        rng = np.random.default_rng(1)
        banks = _random_banks(rng, 3)
        first = prepare_stacked(banks)
        hits = DEFAULT_CACHE.hits
        misses = DEFAULT_CACHE.misses
        # Same contents through a different container/dtype spelling.
        respelled = tuple((np.asarray(ci, dtype=np.int32), list(map(int, cq)))
                          for ci, cq in banks)
        second = prepare_stacked(respelled)
        assert second is first
        assert DEFAULT_CACHE.hits == hits + 1
        assert DEFAULT_CACHE.misses == misses

    def test_different_banks_miss(self):
        rng = np.random.default_rng(2)
        banks = _random_banks(rng, 2)
        prepare_stacked(banks)
        misses = DEFAULT_CACHE.misses
        other = [(ci + 1, cq) for ci, cq in banks]
        prepare_stacked(other)
        assert DEFAULT_CACHE.misses == misses + 1


class TestStackedBankProgram:
    def test_threshold_sweep_reuses_the_prepared_stack(self):
        rng = np.random.default_rng(3)
        banks = _random_banks(rng, 2)
        prepared_a, thr_a = stacked_bank_program(banks, (100, 200))
        hits = DEFAULT_CACHE.hits
        misses = DEFAULT_CACHE.misses
        prepared_b, thr_b = stacked_bank_program(banks, (100, 999))
        # New program key (miss) but the padding level hits.
        assert prepared_b is prepared_a
        assert DEFAULT_CACHE.misses == misses + 1
        assert DEFAULT_CACHE.hits == hits + 1
        assert thr_b.tolist() == [100, 999]
        assert not thr_b.flags.writeable

    def test_validation(self):
        rng = np.random.default_rng(4)
        banks = _random_banks(rng, 2)
        with pytest.raises(ConfigurationError):
            stacked_bank_program(banks, (100,))
        with pytest.raises(ConfigurationError):
            stacked_bank_program(banks, (100, 1 << 32))
        with pytest.raises(ConfigurationError):
            stacked_bank_program(banks, (-1, 100))


class TestStackedMetric:
    @pytest.mark.parametrize("n_banks", [1, 2, 4])
    def test_rows_match_single_bank_metric(self, n_banks):
        rng = np.random.default_rng(5)
        banks = _random_banks(rng, n_banks)
        stacked = prepare_stacked(banks)
        plane = _plane(rng, 700, stacked.history_pairs)
        out = xcorr_metric_stacked(plane, stacked)
        assert out.shape == (n_banks, 700)
        assert out.dtype == np.int64
        for k, bank in enumerate(banks):
            single = xcorr_metric(plane, prepare_coefficients(*bank))
            np.testing.assert_array_equal(out[k], single)

    def test_variable_tap_banks_match_their_own_history_depth(self):
        # Shorter banks are front-padded; with the shared history the
        # padded taps multiply zeros-or-anything into nothing, so each
        # bank matches a standalone correlator of its own length fed
        # the *tail* of the shared history.
        rng = np.random.default_rng(6)
        banks = [(rng.integers(-4, 4, t), rng.integers(-4, 4, t))
                 for t in (5, 3, 8)]
        stacked = prepare_stacked(banks)
        plane = _plane(rng, 300, stacked.history_pairs)
        out = xcorr_metric_stacked(plane, stacked)
        for k, bank in enumerate(banks):
            taps = bank[0].size
            tail = plane[2 * (stacked.taps - taps):]
            single = xcorr_metric(tail, prepare_coefficients(*bank))
            np.testing.assert_array_equal(out[k], single)

    def test_batched_rows(self):
        rng = np.random.default_rng(7)
        banks = _random_banks(rng, 2)
        stacked = prepare_stacked(banks)
        planes = np.stack([_plane(rng, 256, stacked.history_pairs)
                           for _ in range(3)])
        out = xcorr_metric_stacked(planes, stacked)
        assert out.shape == (3, 2, 256)
        for r in range(3):
            np.testing.assert_array_equal(
                out[r], xcorr_metric_stacked(planes[r], stacked))

    def test_out_receives_the_metric(self):
        # 301 samples: the last GEMM row of each plane row is partial.
        rng = np.random.default_rng(9)
        stacked = prepare_stacked(_random_banks(rng, 3))
        planes = np.stack([_plane(rng, 301, stacked.history_pairs)
                           for _ in range(2)])
        out = np.empty((2, 3, 301), dtype=np.int64)
        assert xcorr_metric_stacked(planes, stacked, out=out) is out
        np.testing.assert_array_equal(
            out, xcorr_metric_stacked(planes, stacked))
        for r in range(2):
            np.testing.assert_array_equal(
                out[r], xcorr_metric_stacked(planes[r], stacked))

    def test_history_only_plane_gives_an_empty_metric(self):
        stacked = prepare_stacked(_random_banks(np.random.default_rng(10), 2))
        plane = np.zeros(2 * stacked.history_pairs, dtype=np.int8)
        metric = xcorr_metric_stacked(plane, stacked)
        assert metric.shape == (2, 0)
        assert metric.dtype == np.int64


class TestStackedDetect:
    def test_edges_and_carry_match_single_bank_detect(self):
        rng = np.random.default_rng(8)
        banks = _random_banks(rng, 3)
        stacked = prepare_stacked(banks)
        thresholds = np.array([50_000, 20_000, 5_000], dtype=np.int64)
        plane = _plane(rng, 900, stacked.history_pairs)
        result = xcorr_detect_stacked(plane, stacked, thresholds)
        assert result.trigger.shape == (3, 900)
        assert result.last.shape == (3,)
        for k, bank in enumerate(banks):
            single = xcorr_detect(plane, prepare_coefficients(*bank),
                                  int(thresholds[k]), last=False)
            np.testing.assert_array_equal(result.trigger[k], single.trigger)
            np.testing.assert_array_equal(result.edges[k], single.edges)
            assert bool(result.last[k]) == bool(single.last)

    def test_carry_in_suppresses_leading_edge(self):
        rng = np.random.default_rng(9)
        banks = _random_banks(rng, 2)
        stacked = prepare_stacked(banks)
        plane = _plane(rng, 400, stacked.history_pairs)
        # Threshold 0 triggers everywhere (metric >= 0, strictly > 0
        # almost surely), so the first sample is a rising edge only
        # without carry-in.
        thresholds = np.zeros(2, dtype=np.int64)
        cold = xcorr_detect_stacked(plane, stacked, thresholds)
        warm = xcorr_detect_stacked(plane, stacked, thresholds,
                                    last=np.array([True, False]))
        assert 0 in cold.edges[0] and 0 in cold.edges[1]
        assert 0 not in warm.edges[0]
        assert 0 in warm.edges[1]

    def test_threshold_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        banks = _random_banks(rng, 2)
        stacked = prepare_stacked(banks)
        plane = _plane(rng, 64, stacked.history_pairs)
        with pytest.raises(ConfigurationError):
            xcorr_detect_stacked(plane, stacked,
                                 np.array([1, 2, 3], dtype=np.int64))
