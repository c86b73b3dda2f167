"""Whole-jammer chunk invariance across bank-count switches and hot swaps.

``ReactiveJammer.run`` streams on across calls: the core keeps its
clock, sign history and trigger carry.  Between runs the host selects
a register file with ``REG_BANK_COUNT`` (0 = the legacy registers) and
hot-swaps banks over the register bus.  Run segment by segment at a
drawn chunk size, the jammer must transmit the same bytes and report
the same detections and jams as the same segments run single-shot.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import awgn
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.dsp.fixed_point import quantize_iq16
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import METRIC_MAX

#: Template 0 is the legacy one, 1..4 the banks', 5 only swapped in.
_TEMPLATES = [np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi,
                                                              64))
              for seed in range(6)]
_LIVE = 30_000
#: A swapped-in bank's threshold: live, firing on every sample (so the
#: carry shows at every edge), or silent.
_SWAP_THRESHOLDS = (_LIVE, 0, METRIC_MAX)
_LABELS = ["wifi", "zigbee", "wimax", "dsss"]


def _capture(n: int) -> np.ndarray:
    """IQ16 noise with a preamble every 250 samples, cycling through
    every template, so preambles straddle segment and chunk edges, and
    loud bursts that both energy rows see."""
    rng = np.random.default_rng(3)
    rx = awgn(n, 1e-4, rng)
    for k, start in enumerate(range(100, n - 64, 250)):
        rx[start:start + 64] += _TEMPLATES[k % len(_TEMPLATES)]
    for start in range(400, n - 150, 900):
        rx[start:start + 150] += awgn(150, 0.5, rng)
    return quantize_iq16(rx)


def _jammer() -> ReactiveJammer:
    jammer = ReactiveJammer()
    jammer.configure(
        DetectionConfig(template=_TEMPLATES[0], xcorr_threshold=_LIVE),
        JammingEventBuilder().on_correlation(),
        reactive_jammer(4e-6))
    jammer.driver.set_correlator_banks(
        _TEMPLATES[1:1 + regmap.MAX_BANKS], [_LIVE] * regmap.MAX_BANKS,
        labels=_LABELS)
    jammer.driver.set_bank_count(0)
    return jammer


def _run(segments, rx, chunk_size):
    """Each segment's writes, then its samples through ``run``."""
    jammer = _jammer()
    driver = jammer.driver
    tx, detections, jams = [], [], []
    start = 0
    for length, count, swap in segments:
        driver.set_bank_count(count)
        if swap is not None:
            index, template, threshold = swap
            driver.set_correlator_bank(index, _TEMPLATES[template],
                                       threshold=threshold,
                                       label=f"swap{template}")
        segment = rx[start:start + length]
        report = jammer.run(segment, chunk_size=chunk_size or segment.size)
        tx.append(report.tx.tobytes())
        detections += [(d.time, d.source, d.protocol)
                       for d in report.detections]
        jams += report.jams
        start += length
    return tx, detections, jams


segment_plans = st.lists(
    st.tuples(st.integers(200, 2000),
              st.integers(0, regmap.MAX_BANKS),
              st.none() | st.tuples(st.integers(0, regmap.MAX_BANKS - 1),
                                    st.integers(0, len(_TEMPLATES) - 1),
                                    st.sampled_from(_SWAP_THRESHOLDS))),
    min_size=2, max_size=4)


@given(segments=segment_plans, chunk_size=st.integers(50, 2048))
@settings(max_examples=25, deadline=None)
def test_segments_run_chunked_equal_single_shot(segments, chunk_size):
    rx = _capture(sum(length for length, _count, _swap in segments))
    chunked = _run(segments, rx, chunk_size)
    single = _run(segments, rx, None)
    assert chunked == single
    # The segments detect something, so the comparison has teeth.
    assert single[1]
