"""Property suite: a K-bank correlator is K independent correlators.

Hypothesis drives random coefficient banks, random thresholds, and —
the load-bearing part — *random chunk splits* of one sample stream.
However the stream is sliced, a K-bank :class:`repro.hw.CrossCorrelator`
must stay byte-identical to K independent one-bank instances, bank by
bank: metric plane, trigger plane, and the rising edges a per-bank
carry chains across chunk boundaries.  Driven through the bank
registers, with thresholds switching between silent and live, it must
also equal the int64 four-pass reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.hw.cross_correlator as cross_correlator_module
from repro.dsp.fixed_point import quantize_iq16
from repro.hw.cross_correlator import METRIC_MAX, CrossCorrelator
from repro.hw.register_map import CORRELATOR_LENGTH
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210
from repro.kernels import (
    clamped_thresholds,
    edge_mask,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
    xcorr_detect_batch,
    xcorr_metric,
)
from tests.kernels.test_xcorr_kernels import _reference_metric

#: seed for the data stream, bank count, per-chunk sizes (zeros allowed
#: — an empty chunk must be a no-op), and a per-bank threshold scale.
stream_case = st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 4),
    st.lists(st.integers(0, 160), min_size=1, max_size=6),
    st.integers(0, 2_000),
)


def _make_banks(rng, n_banks):
    return [(rng.integers(-4, 4, CORRELATOR_LENGTH),
             rng.integers(-4, 4, CORRELATOR_LENGTH))
            for _ in range(n_banks)]


class TestStreamingChunkSplits:
    @given(stream_case)
    @settings(max_examples=40, deadline=None)
    def test_detect_matches_independent_streams(self, case):
        seed, n_banks, chunk_sizes, threshold_scale = case
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        # Low thresholds so triggers and edges actually occur on noise.
        thresholds = rng.integers(0, threshold_scale + 1, n_banks)
        samples = rng.normal(size=sum(chunk_sizes)) \
            + 1j * rng.normal(size=sum(chunk_sizes))

        banked = CrossCorrelator()
        banked.load_banks(banks, thresholds)
        singles = [CrossCorrelator(ci, cq, threshold=int(thr))
                   for (ci, cq), thr in zip(banks, thresholds)]

        banked_last = np.zeros(n_banks, dtype=bool)
        single_last = np.zeros(n_banks, dtype=bool)
        position = 0
        for size in chunk_sizes:
            chunk = samples[position:position + size]
            position += size
            trigger = banked.detect(chunk)
            assert trigger.shape == (n_banks, size)
            edges = edge_mask(trigger, banked_last)
            for k, single in enumerate(singles):
                (t,) = single.detect(chunk)
                np.testing.assert_array_equal(trigger[k], t)
                np.testing.assert_array_equal(
                    edges[k], edge_mask(t, single_last[k]))
                if size:
                    single_last[k] = t[-1]
            if size:
                banked_last = trigger[:, -1].copy()

    @given(stream_case)
    @settings(max_examples=30, deadline=None)
    def test_metric_plane_matches_independent_streams(self, case):
        seed, n_banks, chunk_sizes, _scale = case
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        samples = rng.normal(size=sum(chunk_sizes)) \
            + 1j * rng.normal(size=sum(chunk_sizes))

        banked = CrossCorrelator()
        banked.load_banks(banks, np.zeros(n_banks, dtype=np.int64))
        singles = [CrossCorrelator(ci, cq) for ci, cq in banks]

        position = 0
        for size in chunk_sizes:
            chunk = samples[position:position + size]
            position += size
            plane = banked.metric(chunk)
            assert plane.shape == (n_banks, size)
            for k, single in enumerate(singles):
                np.testing.assert_array_equal(plane[k],
                                              single.metric(chunk)[0])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_chunked_equals_one_shot(self, seed, n_banks):
        rng = np.random.default_rng(seed)
        banks = _make_banks(rng, n_banks)
        thresholds = rng.integers(0, 2_000, n_banks)
        samples = rng.normal(size=300) + 1j * rng.normal(size=300)

        one_shot = CrossCorrelator()
        one_shot.load_banks(banks, thresholds)
        whole_edges = edge_mask(one_shot.detect(samples), False)

        chunked = CrossCorrelator()
        chunked.load_banks(banks, thresholds)
        collected = [[] for _ in range(n_banks)]
        last = np.zeros(n_banks, dtype=bool)
        for start in range(0, 300, 77):
            trigger = chunked.detect(samples[start:start + 77])
            edges = edge_mask(trigger, last)
            last = trigger[:, -1].copy()
            for k in range(n_banks):
                collected[k].extend(np.flatnonzero(edges[k]) + start)
        for k in range(n_banks):
            np.testing.assert_array_equal(np.array(collected[k]),
                                          np.flatnonzero(whole_edges[k]))


class TestBatchLeg:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_batch_rows_equal_streaming_stacked(self, seed, n_banks,
                                                batch):
        rng = np.random.default_rng(seed)
        banks = [(rng.integers(-4, 4, 8), rng.integers(-4, 4, 8))
                 for _ in range(n_banks)]
        stacked = prepare_coefficients(banks)
        thresholds = rng.integers(0, 200, n_banks)
        width = 40
        lengths = rng.integers(1, width + 1, batch)
        blocks = rng.normal(size=(batch, width)) \
            + 1j * rng.normal(size=(batch, width))

        result = xcorr_detect_batch(blocks, lengths, stacked, thresholds)

        limits = clamped_thresholds(stacked, thresholds)
        history = np.zeros(2 * stacked.history_pairs, dtype=np.int8)
        last = np.zeros(n_banks, dtype=bool)
        for b in range(batch):
            row = blocks[b, :lengths[b]]
            plane = np.concatenate([history, sign_plane(row)])
            trigger = xcorr_detect(plane, stacked, limits)
            n = int(lengths[b])
            np.testing.assert_array_equal(
                result.trigger[b, :, :n],
                xcorr_metric(plane, stacked) > thresholds[:, None])
            np.testing.assert_array_equal(result.trigger[b, :, :n], trigger)
            np.testing.assert_array_equal(result.edge_plane[b, :, :n],
                                          edge_mask(trigger, last))
            history = plane[2 * n:]
            last = trigger[:, -1].copy()
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.last, last)

    @pytest.mark.parametrize("n_banks", [1, 4])
    def test_batch_equals_the_streaming_facade(self, n_banks):
        # Rows of 5 and 3 samples are shorter than the 63-pair history,
        # so their stitch reaches into earlier rows.
        rng = np.random.default_rng(n_banks)
        banks = _make_banks(rng, n_banks)
        thresholds = rng.integers(0, 3_000, n_banks)
        lengths = np.array([200, 5, 3, 130, 200, 1], dtype=np.int64)
        blocks = rng.normal(size=(lengths.size, 200)) \
            + 1j * rng.normal(size=(lengths.size, 200))

        result = xcorr_detect_batch(blocks, lengths,
                                    prepare_coefficients(banks), thresholds)

        facade = CrossCorrelator()
        facade.load_banks(banks, thresholds)
        last = np.zeros(n_banks, dtype=bool)
        for b, length in enumerate(lengths):
            trigger = facade.detect(blocks[b, :length])
            np.testing.assert_array_equal(result.trigger[b, :, :length],
                                          trigger)
            np.testing.assert_array_equal(result.edge_plane[b, :, :length],
                                          edge_mask(trigger, last))
            last = trigger[:, -1].copy()
        np.testing.assert_array_equal(result.history, facade.history)
        np.testing.assert_array_equal(result.last, last)


#: seed, bank count, and per chunk: its size and a mask of the banks
#: whose threshold register holds a live (not silent) value.
register_case = st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(1, 300), st.integers(0, 15)),
             min_size=1, max_size=8),
)


class TestRegisterDrivenAgainstReference:
    @given(register_case)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_four_pass_reference(self, case):
        """Register writes switch banks between silent and live between
        chunks; metric, triggers, edges, carries and sign history match
        the int64 four-pass reference of each bank."""
        seed, n_banks, plan = case
        rng = np.random.default_rng(seed)
        templates = [np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
                     for _ in range(n_banks)]
        live = rng.integers(0, 3_000, n_banks)
        rx = quantize_iq16(rng.normal(size=sum(n for n, _ in plan))
                           + 1j * rng.normal(size=sum(n for n, _ in plan)))

        device = UsrpN210()
        driver = UhdDriver(device)
        driver.set_correlator_banks(templates, live)
        core = device.core
        coeffs = [core.banked.bank_coefficients(k) for k in range(n_banks)]
        reference = np.stack([_reference_metric(rx, ci, cq)
                              for ci, cq in coeffs])

        results = []
        kernel = cross_correlator_module.xcorr_detect

        def recording(plane, prepared, limits, out=None):
            metric = xcorr_metric(plane, prepared)
            trigger = kernel(plane, prepared, limits, out=out)
            results.append((metric, trigger.copy()))
            return trigger

        cross_correlator_module.xcorr_detect = recording
        try:
            self._stream(driver, core, rx, plan, live, reference, results)
        finally:
            cross_correlator_module.xcorr_detect = kernel

    @staticmethod
    def _stream(driver, core, rx, plan, live, reference, results):
        n_banks = live.size
        last = np.zeros(n_banks, dtype=bool)
        start = 0
        for size, mask in plan:
            is_live = [(mask >> k) & 1 for k in range(n_banks)]
            thresholds = np.where(is_live, live, METRIC_MAX)
            for k, threshold in enumerate(thresholds):
                driver.set_bank_threshold(k, int(threshold))
            chunk = rx[start:start + size]
            ran = len(results)
            out = core.process(chunk, quantized=True)

            expected_metric = reference[:, start:start + size]
            trigger = expected_metric > thresholds[:, None]
            # A live threshold is far below any bank's metric ceiling.
            assert core.banked.silent == (not any(is_live))
            if any(is_live):
                assert len(results) == ran + 1
                metric, got_trigger = results[-1]
                np.testing.assert_array_equal(metric, expected_metric)
                np.testing.assert_array_equal(got_trigger, trigger)
            else:
                assert len(results) == ran
                assert not trigger.any()
            edges = edge_mask(trigger, last)
            expected = sorted((start + t, k) for k in range(n_banks)
                              for t in np.flatnonzero(edges[k]))
            got = [(d.time, core.banked.labels.index(d.protocol))
                   for d in out.detections if d.protocol is not None]
            assert got == expected
            last = trigger[:, -1]
            np.testing.assert_array_equal(core._banked_carry[:n_banks], last)
            start += size
            history = np.concatenate([
                np.zeros(2 * (CORRELATOR_LENGTH - 1), dtype=np.int8),
                sign_plane(rx[:start])])[-2 * (CORRELATOR_LENGTH - 1):]
            np.testing.assert_array_equal(core.banked.history, history)
