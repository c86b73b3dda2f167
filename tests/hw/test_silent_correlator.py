"""The silent-correlator skip and the per-chunk detection merge.

A correlator whose threshold is at least its bank's metric ceiling
cannot fire, so :meth:`CrossCorrelator.detect` skips the GEMM and only
shifts the sign history.  These tests switch a core between silent and
live over the register bus mid-stream and compare it, chunk by chunk,
with a reference correlator that always evaluates the metric.  They
also pin the (time, source, bank) order of the detection merge.
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
    metric_ceiling,
    quantize_coefficients,
)
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import pack_signed_fields
from repro.hw.trigger import TriggerSource
from repro.kernels import rising_edge_plane
from repro.telemetry.metrics import MetricsRegistry

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

    def test_silent_chunks_still_count(self):
        registry = MetricsRegistry()
        correlator = CrossCorrelator()
        correlator.attach_metrics(registry)
        correlator.detect(np.ones(100, dtype=np.complex128))
        correlator.detect(np.ones(7, dtype=np.complex128))
        assert registry.counter("kernels.xcorr.chunks").value == 2
        assert registry.counter("kernels.xcorr.samples").value == 107

    def test_silent_detect_calls_no_kernel(self, monkeypatch):
        import repro.hw.cross_correlator as module

        def fail(*_args, **_kwargs):
            raise AssertionError("the GEMM ran for a silent correlator")

        monkeypatch.setattr(module, "xcorr_detect", fail)
        trigger, edges = CrossCorrelator(*_COEFFS).detect(_stream(500))
        assert trigger.shape == (500,) and not trigger.any()
        assert edges.size == 0


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

    def recording(samples, last=False):
        trigger, edges = detect(samples, last)
        triggers.append(trigger.copy())
        return trigger, edges

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
        expected = reference.metric(chunk) > threshold
        expected_edges = np.flatnonzero(rising_edge_plane(expected, last))
        last = bool(expected[-1])

        np.testing.assert_array_equal(triggers[-1], expected)
        got = [d.time - start for d in out.detections
               if d.source is TriggerSource.XCORR]
        assert got == expected_edges.tolist()
        assert core.correlator._history.tobytes() == \
            reference._history.tobytes()
        start += chunk.size


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
        events = core._collect_detections(
            1000, [(_edges([5, 9]), None)], _edges([5]), _edges([2, 5]))
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
        events = core._collect_detections(0, banks, _edges([7]), _edges([]))
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
        events = CustomDspCore()._collect_detections(
            start, banks, _edges(ehigh), _edges(elow))
        assert [(e.time, e.source, e.protocol) for e in events] == \
            _lexsort_reference(start, banks, _edges(ehigh), _edges(elow))


@pytest.mark.parametrize("chunk", [1, 62, 63, 64, 1000])
def test_silent_history_matches_gemm_history(chunk):
    rx = _stream(2500)
    silent = CrossCorrelator(*_COEFFS)
    reference = CrossCorrelator(*_COEFFS)
    for start in range(0, rx.size, chunk):
        silent.detect(rx[start:start + chunk])
        reference.metric(rx[start:start + chunk])
        assert silent._history.tobytes() == reference._history.tobytes()
