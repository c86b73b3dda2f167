"""One detection step per chunk, against a reference built the old way.

:meth:`CustomDspCore.process` writes the correlator's ``K`` trigger
rows and the energy differentiator's two into one plane, takes its
rising edges once against one carry, and builds the chunk's events
from one ``flatnonzero``.  The reference here does what the core did
before: an int64 metric from the four-pass correlation over the one
sample stream, one edge list per row with its own carry, and a
``np.lexsort`` merge.  Register writes between chunks switch banks
between silent and live and change the bank count mid-stream.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.kernels.xcorr as xcorr_kernels
from repro.channel.awgn import awgn
from repro.dsp.fixed_point import quantize_iq16
from repro.hw.cross_correlator import METRIC_MAX
from repro.hw.dsp_core import LEGACY_SLOT
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.trigger import TriggerSource
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210
from repro.runtime.buffers import ScratchBuffer
from tests.kernels.test_xcorr_kernels import _reference_metric

_TEMPLATES = [np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, 64))
              for seed in (7, 8, 9)]
_LIVE = 30_000
_SOURCES = (TriggerSource.XCORR, TriggerSource.ENERGY_HIGH,
            TriggerSource.ENERGY_LOW)


def _stream(n: int = 3000) -> np.ndarray:
    """IQ16 noise with each template planted in turn, and loud bursts
    so both energy rows fire."""
    rng = np.random.default_rng(21)
    rx = awgn(n, 1e-4, rng)
    for k, start in enumerate(range(150, n - 64, 350)):
        rx[start:start + 64] += _TEMPLATES[k % 3]
    for start in range(500, n - 100, 1100):
        rx[start:start + 100] += awgn(100, 0.5, rng)
    return quantize_iq16(rx)


def _rig():
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_template(_TEMPLATES[0])
    driver.set_xcorr_threshold(_LIVE)
    # Program all three banks' words, then park on the legacy path.
    driver.set_correlator_banks(_TEMPLATES, [_LIVE] * 3,
                                labels=["a", "b", "c"])
    driver.set_bank_count(0)
    return device, driver


def _rising(trigger: np.ndarray, last: bool) -> np.ndarray:
    padded = np.concatenate([[bool(last)], trigger])
    return np.flatnonzero(~padded[:-1] & padded[1:])


class _Reference:
    """The detection merge as the core computed it before one plane."""

    def __init__(self, core):
        self.legacy = core.register_file(LEGACY_SLOT)[:2]
        self.banks = [core.register_file(k)[:2] for k in range(3)]
        self.stream = np.zeros(0, dtype=np.complex128)
        self.carry = np.zeros(1, dtype=bool)
        self.energy = EnergyDifferentiator()
        self.energy_last = np.zeros(2, dtype=bool)
        self.counts = {source: 0 for source in TriggerSource}

    def switch(self, count: int) -> None:
        self.carry = np.zeros(max(count, 1), dtype=bool)

    def chunk(self, start, chunk, count, thresholds, labels):
        self.stream = np.concatenate([self.stream, chunk])
        n = chunk.size
        coeffs = self.banks[:count] if count else [self.legacy]
        metric = np.stack([_reference_metric(self.stream, ci, cq)[-n:]
                           for ci, cq in coeffs])
        trigger = metric > np.asarray(thresholds, dtype=np.int64)[:, None]
        energy = self.energy.detect(chunk)
        times, sources, banks = [], [], []
        for k, row in enumerate(trigger):
            edges = _rising(row, self.carry[k])
            times += edges.tolist()
            sources += [int(TriggerSource.XCORR)] * edges.size
            banks += [k] * edges.size
        for r, row in enumerate(energy):
            edges = _rising(row, self.energy_last[r])
            times += edges.tolist()
            sources += [int(_SOURCES[r + 1])] * edges.size
            banks += [-1] * edges.size
        self.carry = trigger[:, -1].copy()
        self.energy_last = energy[:, -1].copy()
        events = []
        for i in np.lexsort((banks, sources, times)):
            source = TriggerSource(sources[i])
            self.counts[source] += 1
            label = labels[banks[i]] if banks[i] >= 0 else None
            events.append((start + times[i], source, label))
        return events


#: Per chunk: its size, the bank count it runs at (0 = legacy), a mask
#: of live thresholds, and whether the bank-count register is
#: rewritten even when the count does not change.
plan_case = st.lists(
    st.tuples(st.integers(1, 400), st.integers(0, 3), st.integers(0, 7),
              st.booleans()),
    min_size=1, max_size=10)


@given(plan_case)
@example([(400, 0, 1, False), (300, 2, 3, False), (1, 2, 3, True),
          (500, 0, 1, False), (400, 3, 7, False), (200, 1, 0, False)])
@settings(max_examples=40, deadline=None)
def test_events_match_the_per_row_lexsort_reference(plan):
    rx = _stream()
    device, driver = _rig()
    core = device.core
    reference = _Reference(core)
    count = 0
    start = 0
    for size, bank_count, mask, rewrite in plan:
        chunk = rx[start:start + size]
        if not chunk.size:
            break
        live = [(mask >> k) & 1 for k in range(3)]
        thresholds = [_LIVE if on else METRIC_MAX for on in live]
        driver.set_xcorr_threshold(thresholds[0])
        for k, threshold in enumerate(thresholds):
            driver.set_bank_threshold(k, threshold)
        if bank_count != count or rewrite:
            driver.set_bank_count(bank_count)
            reference.switch(bank_count)
            count = bank_count
        labels = core.correlator.labels if count else (None,)
        expected = reference.chunk(start, chunk, count,
                                   thresholds[:max(count, 1)], labels)
        out = core.process(chunk, quantized=True)
        assert [(d.time, d.source, d.protocol)
                for d in out.detections] == expected
        assert core.detection_counts == reference.counts
        start += chunk.size


def _scratch_buffers(core) -> list[ScratchBuffer]:
    owners = [core, core.correlator, core.energy]
    return [value for owner in owners for value in vars(owner).values()
            if isinstance(value, ScratchBuffer)] \
        + list(xcorr_kernels._SCRATCH.values())


def test_steady_state_chunk_loop_grows_no_scratch():
    rx = _stream(40 * 1024)
    for bank_count in (0, 3):
        device, driver = _rig()
        driver.set_bank_count(bank_count)
        core = device.core
        core.process(rx[:1024], quantized=True)
        buffers = _scratch_buffers(core)
        grows = [buffer.grows for buffer in buffers]
        for start in range(1024, rx.size, 1024):
            core.process(rx[start:start + 1024], quantized=True)
        assert [buffer.grows for buffer in buffers] == grows
        assert sum(core.detection_counts.values())


def _plan_builds(device) -> tuple[int, int, int]:
    core = device.core
    return (core._plans.builds, core.energy._plans.builds,
            device._baseband.grows)


def test_steady_usrp_chunk_plans_once_and_allocates_nothing_chunk_sized():
    """``UsrpN210.process`` on 8192-sample chunks into a run-owned
    transmit buffer, the correlator silent and then live, and the
    energy trigger sending WGN bursts: after the first chunk no block
    builds a plan (nor grows its baseband buffer), and 16 more chunks
    allocate less than a quarter of one chunk's complex128 bytes at
    their peak (a fresh quantizer output alone is all of them)."""
    n = 8192
    rx = _stream(17 * n)
    for live in (False, True):
        device = UsrpN210()
        if live:
            driver = UhdDriver(device)
            driver.set_correlator_template(_TEMPLATES[0])
            driver.set_xcorr_threshold(_LIVE)
        tx = np.zeros(rx.size, dtype=np.complex128)
        device.process(rx[:n], tx_out=tx[:n])
        builds = _plan_builds(device)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for start in range(n, rx.size, n):
                device.process(rx[start:start + n],
                               tx_out=tx[start:start + n])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _plan_builds(device) == builds
        assert peak - base < 16 * n // 4
        assert device.core.jam_count
        assert device.core.correlator.silent is not live
        assert bool(device.core.detection_counts[TriggerSource.XCORR]) \
            is live
