"""The silent-correlator skip and the per-chunk detection merge.

A correlator each of whose thresholds is at least its bank's metric
ceiling cannot fire, so :meth:`CrossCorrelator.detect` skips the GEMM
and only signs the chunk tail its history keeps.  These tests switch a
core between silent and live over the register bus mid-stream and
compare it, chunk by chunk, with a reference correlator that always
evaluates the metric.  They also pin the (time, source, bank) order of
the events the core builds from its stacked edge plane.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.channel.awgn import awgn
from repro.dsp.fixed_point import quantize_iq16
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import (
    METRIC_MAX,
    CrossCorrelator,
    quantize_coefficients,
)
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import pack_signed_fields
from repro.hw.trigger import TriggerSource
from repro.hw.usrp import UsrpN210
from repro.kernels import edge_mask, metric_ceiling
from repro.telemetry import Telemetry

_TEMPLATE = np.exp(1j * np.random.default_rng(7).uniform(0, 2 * np.pi, 64))
_COEFFS = quantize_coefficients(_TEMPLATE)
_ZEROS = (np.zeros(64, dtype=np.int64), np.zeros(64, dtype=np.int64))
_LIVE_THRESHOLD = 30_000

#: (coefficients, threshold) register states; only the last is live.
_STATES = [(_ZEROS, _LIVE_THRESHOLD), (_ZEROS, METRIC_MAX),
           (_COEFFS, METRIC_MAX), (_COEFFS, _LIVE_THRESHOLD)]


def _stream(n: int = 4000) -> np.ndarray:
    """IQ16 samples (what the core sees) with a template every 900."""
    rx = awgn(n, 1e-4, np.random.default_rng(11))
    for start in range(300, n - 64, 900):
        rx[start:start + 64] += _TEMPLATE
    return quantize_iq16(rx)


def _program(core: CustomDspCore, coeffs, threshold: int) -> None:
    for base, bank in ((regmap.REG_COEFF_I_BASE, coeffs[0]),
                       (regmap.REG_COEFF_Q_BASE, coeffs[1])):
        words = pack_signed_fields([int(c) for c in bank], regmap.COEFF_BITS)
        for offset, word in enumerate(words):
            core.bus.write(base + offset, word)
    core.bus.write(regmap.REG_XCORR_THRESHOLD, threshold)


class TestSilentRule:
    def test_power_on_correlator_is_silent(self):
        assert CrossCorrelator().silent

    def test_ceiling_bounds_every_three_bit_bank(self):
        worst = np.full(64, -4)
        assert metric_ceiling(worst, worst) == METRIC_MAX
        assert metric_ceiling(*_COEFFS) <= METRIC_MAX

    def test_threshold_at_the_ceiling_is_silent_below_it_live(self):
        correlator = CrossCorrelator(*_COEFFS)
        ceiling = metric_ceiling(*_COEFFS)
        correlator.threshold = ceiling
        assert correlator.silent
        correlator.threshold = ceiling - 1
        assert not correlator.silent

    def test_ceiling_is_reached(self):
        # Real coefficients against 1+1j signs put |cI| into both Re
        # and Im: the ceiling is a metric some stream scores.
        coeffs_i, coeffs_q = np.full(64, 3), np.zeros(64, dtype=np.int64)
        correlator = CrossCorrelator(coeffs_i, coeffs_q)
        samples = np.full(64, 1 + 1j)
        assert correlator.metric(samples).max() == \
            metric_ceiling(coeffs_i, coeffs_q)

    def test_silent_chunks_are_stage_spans(self):
        telemetry = Telemetry()
        device = UsrpN210()
        telemetry.attach(device)
        correlator = device.core.correlator
        assert correlator.silent
        correlator.detect(np.ones(100, dtype=np.complex128))
        correlator.detect(np.ones(7, dtype=np.complex128))
        assert [event.args["samples"] for event in telemetry.events()
                if event.name == "hw.cross_correlator"] == [100, 7]

    def test_silent_detect_calls_no_kernel(self, monkeypatch):
        import repro.hw.cross_correlator as module

        def fail(*_args, **_kwargs):
            raise AssertionError("the GEMM ran for a silent correlator")

        monkeypatch.setattr(module, "xcorr_detect", fail)
        trigger = CrossCorrelator(*_COEFFS).detect(_stream(500))
        assert trigger.shape == (1, 500) and not trigger.any()

    def test_one_live_bank_keeps_the_kernel_running(self, monkeypatch):
        import repro.hw.cross_correlator as module

        calls = []
        kernel = module.xcorr_detect

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, "xcorr_detect", counting)
        correlator = CrossCorrelator()
        correlator.load_banks([_COEFFS, _COEFFS],
                              [METRIC_MAX, _LIVE_THRESHOLD])
        assert not correlator.silent
        rx = _stream(1000)
        trigger = correlator.detect(rx)
        assert calls == [1]
        assert not trigger[0].any()
        # The live bank fires on the planted template, as it does alone.
        alone = CrossCorrelator(*_COEFFS, threshold=_LIVE_THRESHOLD)
        (alone_trigger,) = alone.detect(rx)
        assert np.flatnonzero(edge_mask(trigger[1], False)).tolist() \
            == [300 + 63]
        np.testing.assert_array_equal(trigger[1], alone_trigger)

        # Both banks silent: no kernel call, yet the history advances.
        correlator.set_threshold(1, METRIC_MAX)
        assert correlator.silent
        reference = CrossCorrelator(*_COEFFS)
        reference.metric(rx)
        tail = _stream(1700)[1000:]
        ran = len(calls)
        trigger = correlator.detect(tail)
        reference.metric(tail)
        assert len(calls) == ran
        assert trigger.shape == (2, 700) and not trigger.any()
        assert correlator.history.tobytes() == reference.history.tobytes()


@given(st.lists(st.tuples(st.integers(1, 700), st.integers(0, 3)),
                min_size=1, max_size=14))
@example([(350, 3), (62, 2), (600, 3), (1, 0), (63, 1), (900, 3)])
@settings(max_examples=60, deadline=None)
def test_switching_matches_an_always_gemm_reference(plan):
    """Mid-stream register writes flip the core between silent and live;
    triggers, edges and the carried sign history match a reference that
    evaluates the metric for every chunk."""
    rx = _stream()
    core = CustomDspCore()
    triggers = []
    detect = core.correlator.detect

    def recording(samples, out=None):
        trigger = detect(samples, out)
        triggers.append(trigger[0].copy())
        return trigger

    core.correlator.detect = recording
    reference = CrossCorrelator()
    last = False
    start = 0
    for length, state in plan:
        if start >= rx.size:
            break
        coeffs, threshold = _STATES[state]
        _program(core, coeffs, threshold)
        reference.load_coefficients(*coeffs)
        reference.threshold = threshold
        assert core.correlator.silent == (state != 3)

        chunk = rx[start:start + length]
        out = core.process(chunk, quantized=True)
        expected = reference.metric(chunk)[0] > threshold
        expected_edges = np.flatnonzero(edge_mask(expected, last))
        last = bool(expected[-1])

        np.testing.assert_array_equal(triggers[-1], expected)
        got = [d.time - start for d in out.detections
               if d.source is TriggerSource.XCORR]
        assert got == expected_edges.tolist()
        assert core.correlator.history.tobytes() == \
            reference.history.tobytes()
        start += chunk.size


def _edge_plane(bank_edges, ehigh, elow, width=41) -> np.ndarray:
    """The (K + 2, width) edge mask the core's event builder reads."""
    plane = np.zeros((len(bank_edges) + 2, width), dtype=bool)
    for row, edges in enumerate(list(bank_edges) + [ehigh, elow]):
        plane[row, edges] = True
    return plane


def _events(core, chunk_start, xcorr_banks, ehigh, elow):
    """Feed per-row edge lists to the core's event builder, through
    the edge plane of the core's plan for that width and bank set."""
    plane = _edge_plane([edges for edges, _ in xcorr_banks], ehigh, elow)
    plan = core._plans.get(
        (plane.shape[1], tuple(label for _, label in xcorr_banks)))
    plan.edges[...] = plane
    return core._events(chunk_start, plan)


def _lexsort_reference(chunk_start, xcorr_banks, ehigh, elow):
    """The merge order np.lexsort((banks, sources, times)) gives."""
    times = np.concatenate([e for e, _ in xcorr_banks] + [ehigh, elow])
    sources = np.concatenate(
        [np.full(e.size, int(TriggerSource.XCORR)) for e, _ in xcorr_banks]
        + [np.full(ehigh.size, int(TriggerSource.ENERGY_HIGH)),
           np.full(elow.size, int(TriggerSource.ENERGY_LOW))])
    banks = np.concatenate(
        [np.full(e.size, k) for k, (e, _) in enumerate(xcorr_banks)]
        + [np.full(ehigh.size + elow.size, -1)])
    labels = [label for _, label in xcorr_banks]
    return [(int(times[k]) + chunk_start, TriggerSource(int(sources[k])),
             labels[banks[k]] if banks[k] >= 0 else None)
            for k in np.lexsort((banks, sources, times))]


def _edges(values) -> np.ndarray:
    return np.array(sorted(set(values)), dtype=np.int64)


class TestDetectionMerge:
    def test_coincident_legacy_edges_order_by_source(self):
        core = CustomDspCore()
        events = _events(
            core, 1000, [(_edges([5, 9]), None)], _edges([5]), _edges([2, 5]))
        assert [(e.time, e.source, e.protocol) for e in events] == [
            (1002, TriggerSource.ENERGY_LOW, None),
            (1005, TriggerSource.XCORR, None),
            (1005, TriggerSource.ENERGY_HIGH, None),
            (1005, TriggerSource.ENERGY_LOW, None),
            (1009, TriggerSource.XCORR, None),
        ]

    def test_coincident_stacked_edges_order_by_bank(self):
        core = CustomDspCore()
        banks = [(_edges([40, 7]), "wifi"), (_edges([7]), "dsss"),
                 (_edges([]), "wimax"), (_edges([7, 3]), "zigbee")]
        events = _events(core, 0, banks, _edges([7]), _edges([]))
        assert [(e.time, e.source, e.protocol) for e in events] == [
            (3, TriggerSource.XCORR, "zigbee"),
            (7, TriggerSource.XCORR, "wifi"),
            (7, TriggerSource.XCORR, "dsss"),
            (7, TriggerSource.XCORR, "zigbee"),
            (7, TriggerSource.ENERGY_HIGH, None),
            (40, TriggerSource.XCORR, "wifi"),
        ]

    @given(st.lists(st.lists(st.integers(0, 20), max_size=6),
                    min_size=1, max_size=4),
           st.lists(st.integers(0, 20), max_size=6),
           st.lists(st.integers(0, 20), max_size=6),
           st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort_order(self, bank_edges, ehigh, elow, start):
        banks = [(_edges(edges), f"p{k}") for k, edges in
                 enumerate(bank_edges)]
        core = CustomDspCore()
        events = _events(core, start, banks, _edges(ehigh), _edges(elow))
        assert [(e.time, e.source, e.protocol) for e in events] == \
            _lexsort_reference(start, banks, _edges(ehigh), _edges(elow))
        assert core.detection_counts == {
            TriggerSource.XCORR: sum(e.size for e, _ in banks),
            TriggerSource.ENERGY_HIGH: _edges(ehigh).size,
            TriggerSource.ENERGY_LOW: _edges(elow).size,
        }


@pytest.mark.parametrize("chunk", [1, 62, 63, 64, 1000])
def test_silent_history_matches_gemm_history(chunk):
    rx = _stream(2500)
    silent = CrossCorrelator(*_COEFFS)
    reference = CrossCorrelator(*_COEFFS)
    for start in range(0, rx.size, chunk):
        silent.detect(rx[start:start + chunk])
        reference.metric(rx[start:start + chunk])
        assert silent.history.tobytes() == reference.history.tobytes()


class TestPendingHistory:
    """A silent correlator keeps its chunk tails raw and signs them
    when the history is read; these cases read it at every point a
    pending tail could leak or be lost."""

    @staticmethod
    def _reference(rx) -> CrossCorrelator:
        reference = CrossCorrelator(*_COEFFS)
        reference.metric(rx)
        return reference

    def test_reset_drops_the_pending_tail(self):
        rx = _stream(600)
        correlator = CrossCorrelator(*_COEFFS)
        correlator.detect(rx[:400])
        correlator.detect(rx[400:430])
        correlator.reset()
        assert not correlator.history.any()
        correlator.threshold = _LIVE_THRESHOLD
        fresh = CrossCorrelator(*_COEFFS, threshold=_LIVE_THRESHOLD)
        np.testing.assert_array_equal(correlator.detect(rx),
                                      fresh.detect(rx))
        assert correlator.history.tobytes() == fresh.history.tobytes()

    def test_bank_load_keeps_the_pending_tail(self):
        rx = _stream(1500)
        correlator = CrossCorrelator(*_COEFFS)
        correlator.detect(rx[:200])
        correlator.detect(rx[200:240])
        correlator.load_banks([_COEFFS, _COEFFS],
                              [_LIVE_THRESHOLD, METRIC_MAX])
        reference = self._reference(rx[:240])
        assert correlator.history.tobytes() == reference.history.tobytes()
        trigger = correlator.detect(rx[240:])
        expected = reference.metric(rx[240:])[0] > _LIVE_THRESHOLD
        np.testing.assert_array_equal(trigger[0], expected)
        assert expected.any() and not trigger[1].any()

    def test_bank_load_then_live_chunk_without_a_read(self):
        rx = _stream(1500)
        correlator = CrossCorrelator(*_COEFFS)
        correlator.detect(rx[:500])
        correlator.load_bank(0, *_COEFFS)
        correlator.threshold = _LIVE_THRESHOLD
        reference = self._reference(rx[:500])
        expected = reference.metric(rx[500:])[0] > _LIVE_THRESHOLD
        np.testing.assert_array_equal(correlator.detect(rx[500:])[0],
                                      expected)

    def test_live_chunk_signs_the_pending_tail_first(self):
        # The planted template at 300..363 straddles the silent/live
        # boundary, so the live windows read 30 pending samples.
        rx = _stream(1000)
        reference = self._reference(rx[:330])
        expected = reference.metric(rx[330:])
        correlator = CrossCorrelator(*_COEFFS)
        correlator.detect(rx[:330])
        np.testing.assert_array_equal(correlator.metric(rx[330:]), expected)
        live = CrossCorrelator(*_COEFFS)
        live.detect(rx[:330])
        live.threshold = _LIVE_THRESHOLD
        (trigger,) = live.detect(rx[330:])
        np.testing.assert_array_equal(trigger, expected[0] > _LIVE_THRESHOLD)
        assert trigger[363 - 330]
        assert live.history.tobytes() == reference.history.tobytes()

    @pytest.mark.parametrize("lengths", [(100, 10), (63, 1, 62), (64, 40, 30),
                                         (5, 200, 7, 7, 70, 1)])
    def test_short_silent_chunks_after_longer_ones(self, lengths):
        rx = _stream(sum(lengths))
        read_each, read_last = (CrossCorrelator(*_COEFFS) for _ in range(2))
        start = 0
        for length in lengths:
            read_each.detect(rx[start:start + length])
            read_last.detect(rx[start:start + length])
            start += length
            assert read_each.history.tobytes() == \
                self._reference(rx[:start]).history.tobytes()
        assert read_last.history.tobytes() == read_each.history.tobytes()

    def test_history_is_a_copy(self):
        correlator = CrossCorrelator(*_COEFFS)
        correlator.detect(_stream(100))
        history = correlator.history
        history[:] = 0
        assert correlator.history.any()
