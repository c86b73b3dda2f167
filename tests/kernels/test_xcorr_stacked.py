"""Correctness of the K-bank correlation kernel.

The invariant under test throughout: bank ``k`` of a K-bank stack is
byte-identical to that bank run alone — metric plane, trigger plane
and edges — although the stack evaluates 16 windows per GEMM row and a
lone bank 32.  The prepare step's memoization on
the bank fingerprints is pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import (
    clamped_thresholds,
    edge_mask,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
    xcorr_metric,
)
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
            prepare_coefficients([])
        with pytest.raises(ConfigurationError):
            prepare_coefficients([(np.ones(4), np.ones(5))])
        with pytest.raises(ConfigurationError):
            prepare_coefficients([(np.zeros(0), np.zeros(0))])

    def test_shapes_and_padding(self):
        rng = np.random.default_rng(0)
        banks = [(rng.integers(-4, 4, 5), rng.integers(-4, 4, 5)),
                 (rng.integers(-4, 4, 8), rng.integers(-4, 4, 8))]
        coeffs = prepare_coefficients(banks)
        assert coeffs.taps == 8
        assert coeffs.n_banks == 2
        assert coeffs.bank_taps == (5, 8)
        assert coeffs.stacked.shape == (16, 4)
        # Front padding: the short bank's first 3 pairs are zero.
        assert not coeffs.stacked[:6, 0:2].any()
        # One GEMM row: S windows reading S + 7 pairs, 2K columns each.
        windows = coeffs.block
        assert coeffs.band.shape == (2 * (windows + 7), 2 * 2 * windows)

    @pytest.mark.parametrize("n_banks, windows", [(1, 32), (2, 16), (4, 16)])
    def test_windows_per_row_come_from_the_bank_count(self, n_banks,
                                                      windows):
        rng = np.random.default_rng(11)
        coeffs = prepare_coefficients(_random_banks(rng, n_banks))
        assert coeffs.block == windows
        assert coeffs.band.shape == (2 * (windows + TAPS - 1),
                                     2 * n_banks * windows)

    def test_repeat_call_is_a_cache_hit_returning_same_instance(self):
        rng = np.random.default_rng(1)
        banks = _random_banks(rng, 3)
        first = prepare_coefficients(banks)
        hits = DEFAULT_CACHE.hits
        misses = DEFAULT_CACHE.misses
        # Same contents through a different container/dtype spelling.
        respelled = tuple((np.asarray(ci, dtype=np.int32), list(map(int, cq)))
                          for ci, cq in banks)
        second = prepare_coefficients(respelled)
        assert second is first
        assert DEFAULT_CACHE.hits == hits + 1
        assert DEFAULT_CACHE.misses == misses

    def test_different_banks_miss(self):
        rng = np.random.default_rng(2)
        banks = _random_banks(rng, 2)
        prepare_coefficients(banks)
        misses = DEFAULT_CACHE.misses
        other = [(ci + 1, cq) for ci, cq in banks]
        prepare_coefficients(other)
        assert DEFAULT_CACHE.misses == misses + 1


class TestStackedMetric:
    @pytest.mark.parametrize("n_banks", [1, 2, 4])
    def test_rows_match_single_bank_metric(self, n_banks):
        rng = np.random.default_rng(5)
        banks = _random_banks(rng, n_banks)
        stacked = prepare_coefficients(banks)
        plane = _plane(rng, 700, stacked.history_pairs)
        out = xcorr_metric(plane, stacked)
        assert out.shape == (n_banks, 700)
        assert out.dtype == np.int64
        for k, bank in enumerate(banks):
            (single,) = xcorr_metric(plane, prepare_coefficients([bank]))
            np.testing.assert_array_equal(out[k], single)

    def test_variable_tap_banks_match_their_own_history_depth(self):
        # Shorter banks are front-padded; with the shared history the
        # padded taps multiply zeros-or-anything into nothing, so each
        # bank matches a standalone correlator of its own length fed
        # the *tail* of the shared history.
        rng = np.random.default_rng(6)
        banks = [(rng.integers(-4, 4, t), rng.integers(-4, 4, t))
                 for t in (5, 3, 8)]
        stacked = prepare_coefficients(banks)
        plane = _plane(rng, 300, stacked.history_pairs)
        out = xcorr_metric(plane, stacked)
        for k, bank in enumerate(banks):
            taps = bank[0].size
            tail = plane[2 * (stacked.taps - taps):]
            (single,) = xcorr_metric(tail, prepare_coefficients([bank]))
            np.testing.assert_array_equal(out[k], single)

    def test_batched_rows(self):
        rng = np.random.default_rng(7)
        banks = _random_banks(rng, 2)
        stacked = prepare_coefficients(banks)
        planes = np.stack([_plane(rng, 256, stacked.history_pairs)
                           for _ in range(3)])
        out = xcorr_metric(planes, stacked)
        assert out.shape == (3, 2, 256)
        for r in range(3):
            np.testing.assert_array_equal(
                out[r], xcorr_metric(planes[r], stacked))

    def test_out_receives_the_metric(self):
        # 301 samples: the last GEMM row of each plane row is partial.
        rng = np.random.default_rng(9)
        stacked = prepare_coefficients(_random_banks(rng, 3))
        planes = np.stack([_plane(rng, 301, stacked.history_pairs)
                           for _ in range(2)])
        out = np.empty((2, 3, 301), dtype=np.int64)
        assert xcorr_metric(planes, stacked, out=out) is out
        np.testing.assert_array_equal(
            out, xcorr_metric(planes, stacked))
        for r in range(2):
            np.testing.assert_array_equal(
                out[r], xcorr_metric(planes[r], stacked))

    def test_history_only_plane_gives_an_empty_metric(self):
        rng = np.random.default_rng(10)
        stacked = prepare_coefficients(_random_banks(rng, 2))
        plane = np.zeros(2 * stacked.history_pairs, dtype=np.int8)
        metric = xcorr_metric(plane, stacked)
        assert metric.shape == (2, 0)
        assert metric.dtype == np.int64


class TestStackedDetect:
    def test_edges_and_carry_match_single_bank_detect(self):
        rng = np.random.default_rng(8)
        banks = _random_banks(rng, 3)
        stacked = prepare_coefficients(banks)
        thresholds = np.array([50_000, 20_000, 5_000], dtype=np.int64)
        plane = _plane(rng, 900, stacked.history_pairs)
        trigger = xcorr_detect(plane, stacked,
                               clamped_thresholds(stacked, thresholds))
        assert trigger.shape == (3, 900)
        edges = edge_mask(trigger, np.zeros(3, dtype=bool))
        for k, bank in enumerate(banks):
            alone = prepare_coefficients([bank])
            (single,) = xcorr_detect(
                plane, alone, clamped_thresholds(alone, thresholds[k:k + 1]))
            np.testing.assert_array_equal(trigger[k], single)
            np.testing.assert_array_equal(edges[k], edge_mask(single, False))
            assert bool(trigger[k, -1]) == bool(single[-1])

    def test_carry_in_suppresses_leading_edge(self):
        rng = np.random.default_rng(9)
        banks = _random_banks(rng, 2)
        stacked = prepare_coefficients(banks)
        plane = _plane(rng, 400, stacked.history_pairs)
        # Threshold 0 triggers everywhere (metric >= 0, strictly > 0
        # almost surely), so the first sample is a rising edge only
        # without carry-in.
        thresholds = np.zeros(2, dtype=np.int64)
        trigger = xcorr_detect(plane, stacked,
                               clamped_thresholds(stacked, thresholds))
        cold = edge_mask(trigger, np.zeros(2, dtype=bool))
        warm = edge_mask(trigger, np.array([True, False]))
        assert cold[0, 0] and cold[1, 0]
        assert not warm[0, 0]
        assert warm[1, 0]

    def test_threshold_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        banks = _random_banks(rng, 2)
        stacked = prepare_coefficients(banks)
        with pytest.raises(ConfigurationError):
            clamped_thresholds(stacked, np.array([1, 2, 3], dtype=np.int64))
