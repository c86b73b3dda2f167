"""Tests for the energy differentiator (paper Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.fixed_point import quantize_iq16
from repro.errors import ConfigurationError, StreamError
from repro.hw import energy_differentiator
from repro.hw.energy_differentiator import (
    DEFAULT_DELAY,
    DEFAULT_WINDOW,
    EnergyDifferentiator,
    THRESHOLD_MAX_DB,
    THRESHOLD_MIN_DB,
)
from repro.kernels import EXACT_SUM_LENGTH, edge_mask, moving_sums


def reference_sums(signal: np.ndarray, window: int) -> np.ndarray:
    energy = np.abs(signal) ** 2
    out = np.zeros(signal.size)
    for n in range(signal.size):
        out[n] = np.sum(energy[max(0, n - window + 1):n + 1])
    return out


class TestConfiguration:
    def test_paper_defaults(self):
        det = EnergyDifferentiator()
        assert det.window == DEFAULT_WINDOW == 32
        assert det.delay == DEFAULT_DELAY == 64

    def test_threshold_range_enforced(self):
        det = EnergyDifferentiator()
        with pytest.raises(ConfigurationError):
            det.threshold_high_db = THRESHOLD_MIN_DB - 0.1
        with pytest.raises(ConfigurationError):
            det.threshold_low_db = THRESHOLD_MAX_DB + 0.1

    def test_threshold_extremes_allowed(self):
        det = EnergyDifferentiator(threshold_high_db=3.0, threshold_low_db=30.0)
        assert det.threshold_high_db == 3.0
        assert det.threshold_low_db == 30.0

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            EnergyDifferentiator(window=0)
        with pytest.raises(ConfigurationError):
            EnergyDifferentiator(delay=0)


class TestEnergySums:
    def test_matches_reference(self, rng):
        det = EnergyDifferentiator()
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        assert np.allclose(det.energy_sums(x), reference_sums(x, 32))

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(1, 200), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_chunked_equals_single_shot(self, seed, sizes):
        # IQ16 energies and their partial sums are exact, so any split
        # of the stream gives the single-shot sums bit for bit.
        rng = np.random.default_rng(seed)
        x = quantize_iq16(0.3 * (rng.standard_normal(sum(sizes))
                                 + 1j * rng.standard_normal(sum(sizes))))
        whole = EnergyDifferentiator().energy_sums(x)
        det = EnergyDifferentiator()
        bounds = np.cumsum([0] + sizes)
        parts = [det.energy_sums(x[a:b])
                 for a, b in zip(bounds, bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            EnergyDifferentiator().energy_sums(np.zeros((2, 3)))

    def test_empty_chunk(self):
        det = EnergyDifferentiator()
        high, low = det.detect(np.zeros(0, dtype=complex))
        assert high.size == 0 and low.size == 0


class TestExactSumBound:
    """A chunk longer than one exact cumulative sum runs in pieces.

    The real bound, 2**22 entries, needs about half a gigabyte to
    cross, so these tests lower it; the pieces' sums are exact either
    way, and what is checked is that no cumulative sum outgrows the
    bound and that the pieces' carries join up.
    """

    BOUND = 1000

    @pytest.fixture
    def cumsum_lengths(self, monkeypatch):
        """Lower the bound; record the length of every cumulative sum."""
        lengths = []

        def spy(padded, window, out, csum):
            lengths.append(padded.shape[-1])
            return moving_sums(padded, window, out, csum)

        monkeypatch.setattr(energy_differentiator, "EXACT_SUM_LENGTH",
                            self.BOUND)
        monkeypatch.setattr(energy_differentiator, "moving_sums", spy)
        return lengths

    @staticmethod
    def _loud_iq16(n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        return quantize_iq16(x)

    @pytest.mark.parametrize("n", [967, 968, 969, 2 * 968, 5000])
    def test_energy_sums_pieces_stay_within_bound(self, cumsum_lengths, n):
        x = self._loud_iq16(n, seed=n)
        det = EnergyDifferentiator()
        chunked = np.concatenate([det.energy_sums(x[a:a + 100])
                                  for a in range(0, n, 100)])
        cumsum_lengths.clear()
        whole = EnergyDifferentiator().energy_sums(x)
        assert max(cumsum_lengths) <= self.BOUND
        assert sum(length - DEFAULT_WINDOW
                   for length in cumsum_lengths) == n
        np.testing.assert_array_equal(whole, chunked)

    def test_detect_pieces_stay_within_bound(self, cumsum_lengths):
        n = 5000
        x = self._loud_iq16(n, seed=7)
        x[2500:2600] *= 0.01  # a fall and a rise across a piece joint
        det = EnergyDifferentiator(threshold_high_db=3.0,
                                   threshold_low_db=3.0)
        chunked = np.concatenate([det.detect(x[a:a + 100])
                                  for a in range(0, n, 100)], axis=1)
        cumsum_lengths.clear()
        whole = EnergyDifferentiator(threshold_high_db=3.0,
                                     threshold_low_db=3.0).detect(x)
        assert max(cumsum_lengths) <= self.BOUND
        assert len(cumsum_lengths) == -(-n // (self.BOUND - DEFAULT_WINDOW))
        np.testing.assert_array_equal(whole, chunked)
        assert whole[0].any() and whole[1].any()

    def test_rejects_window_past_bound(self):
        with pytest.raises(ConfigurationError):
            EnergyDifferentiator(window=EXACT_SUM_LENGTH)


class TestTriggers:
    def test_detects_energy_rise(self, rng):
        det = EnergyDifferentiator(threshold_high_db=10.0)
        quiet = 0.01 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        loud = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        det.detect(quiet)  # charge history with the quiet floor
        high, _low = det.detect(np.concatenate([quiet[:100], loud]))
        assert high.any()
        first = int(np.flatnonzero(high)[0])
        # Rise detected within one moving-sum window of the step.
        assert 100 <= first <= 100 + det.window

    def test_detects_energy_fall(self, rng):
        det = EnergyDifferentiator(threshold_low_db=10.0)
        loud = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        quiet = 0.01 * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        det.detect(loud)
        _high, low = det.detect(quiet)
        assert low.any()

    def test_no_trigger_on_steady_signal(self, rng):
        det = EnergyDifferentiator(threshold_high_db=10.0, threshold_low_db=10.0)
        x = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        det.detect(x[:500])  # consume the cold-start rise
        high, low = det.detect(x[500:])
        assert not high.any()
        assert not low.any()

    def test_small_rise_below_threshold_ignored(self, rng):
        det = EnergyDifferentiator(threshold_high_db=10.0)
        base = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        det.detect(base)
        # 6 dB step < 10 dB threshold
        high, _ = det.detect(2.0 * (rng.standard_normal(300)
                                     + 1j * rng.standard_normal(300)))
        assert not high.any()

    def test_rise_above_threshold_fires(self, rng):
        det = EnergyDifferentiator(threshold_high_db=10.0)
        base = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        det.detect(base)
        # 14 dB step > 10 dB threshold
        high, _ = det.detect(5.0 * (rng.standard_normal(300)
                                     + 1j * rng.standard_normal(300)))
        assert high.any()

    def test_detection_latency_within_window(self):
        # T_en_det: at most `window` samples (32 samples = 1.28 us).
        det = EnergyDifferentiator(threshold_high_db=10.0)
        quiet = np.full(200, 0.001 + 0j)
        det.detect(quiet)
        step = np.full(100, 1.0 + 0j)
        high, _ = det.detect(step)
        first = int(np.flatnonzero(high)[0])
        assert first < det.window

    def test_reset_clears_history(self, rng):
        det = EnergyDifferentiator(threshold_high_db=10.0)
        loud = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        det.detect(loud)
        det.reset()
        # After reset the detector behaves like a cold start: the same
        # loud signal causes a fresh rise trigger.
        high, _ = det.detect(loud)
        assert high.any()

    def test_threshold_reconfigurable_at_runtime(self, rng):
        det = EnergyDifferentiator(threshold_high_db=30.0)
        base = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        det.detect(base)
        step = 5.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        high, _ = det.detect(step)
        assert not high.any()  # 14 dB rise < 30 dB threshold
        det2 = EnergyDifferentiator(threshold_high_db=30.0)
        det2.detect(base)
        det2.threshold_high_db = 10.0
        high2, _ = det2.detect(step)
        assert high2.any()


class TestEdges:
    @pytest.mark.parametrize("chunk", [1, 50, 149, 150, 151, 1000])
    def test_chunked_edges_equal_single_shot(self, chunk):
        # Bursts whose trigger runs cross chunk boundaries: the carried
        # last bit must suppress the duplicate edge at chunk start.
        x = np.full(1200, 0.001 + 0j)
        x[150:400] = 1.0
        x[700:1000] = 1.0
        whole = edge_mask(EnergyDifferentiator().detect(x), False)
        det = EnergyDifferentiator()
        last = np.zeros(2, dtype=bool)
        edges_high, edges_low = [], []
        for start in range(0, x.size, chunk):
            trigger = det.detect(x[start:start + chunk])
            eh, el = edge_mask(trigger, last)
            last = trigger[:, -1].copy()
            edges_high += (np.flatnonzero(eh) + start).tolist()
            edges_low += (np.flatnonzero(el) + start).tolist()
        assert edges_high == np.flatnonzero(whole[0]).tolist()
        assert edges_low == np.flatnonzero(whole[1]).tolist()
        assert edges_high and edges_low

    def test_out_receives_both_rows(self, rng):
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        out = np.ones((2, 300), dtype=bool)
        got = EnergyDifferentiator().detect(x, out)
        assert got is out
        np.testing.assert_array_equal(out, EnergyDifferentiator().detect(x))
