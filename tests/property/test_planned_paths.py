"""The planned and in-place stream paths equal the arithmetic they replace.

A steady chunk runs on views planned once per chunk length, a duty
ledger kept as a running total, WGN drawn into one scratch and scaled
in place, and replay snapshots scaled once when their burst is
scheduled.  Each property here runs the new path against the old
arithmetic, written out in the test, and demands the same bits.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.hw.energy_differentiator as energy_module
from repro.dsp.fixed_point import quantize_iq16
from repro.hw.energy_differentiator import (
    DEFAULT_DELAY,
    DEFAULT_WINDOW,
    EnergyDifferentiator,
)
from repro.hw.tx_controller import JamEvent, JamWaveform, TransmitController
from repro.hw.watchdog import Watchdog, WatchdogConfig

# ----------------------------------------------------------------------
# Energy facade: plans per chunk length


class _OldEnergy:
    """The energy differentiator's arithmetic on fresh arrays per call:
    ``[tail | I*I + Q*Q]`` cumulated in pieces of at most ``bound``
    entries, then the two scaled compares against the delay line."""

    def __init__(self, high_db: float, low_db: float, bound: int) -> None:
        self.high = 10.0 ** (high_db / 10.0)
        self.low = 10.0 ** (low_db / 10.0)
        self.piece = bound - DEFAULT_WINDOW
        self.energy_tail = np.zeros(DEFAULT_WINDOW)
        self.sum_tail = np.zeros(DEFAULT_DELAY)

    def sums(self, samples: np.ndarray) -> np.ndarray:
        sums = []
        for begin in range(0, samples.size, self.piece):
            part = samples[begin:begin + self.piece]
            energy = np.square(part.real)
            energy += np.square(part.imag)
            padded = np.concatenate([self.energy_tail, energy])
            self.energy_tail = padded[part.size:].copy()
            np.add.accumulate(padded, out=padded)
            sums.append(padded[DEFAULT_WINDOW:] - padded[:-DEFAULT_WINDOW])
        return np.concatenate(sums)

    def detect(self, samples: np.ndarray) -> np.ndarray:
        sums = self.sums(samples)
        line = np.concatenate([self.sum_tail, sums])
        delayed = line[:samples.size]
        self.sum_tail = line[samples.size:].copy()
        return np.stack([sums > delayed * self.high,
                         sums * self.low < delayed])


#: Up to eight chunk lengths drawn from a handful, so lengths recur
#: and alternate; 1 and lengths past the lowered bound included.
chunk_lengths = st.lists(st.sampled_from([1, 2, 31, 64, 97, 300, 1500]),
                         min_size=1, max_size=8)


class TestEnergyPlans:
    """Lengths that change back and forth, one of them a single
    sample and some longer than a lowered exact-sum bound, so a chunk
    runs in pieces.  The bound is lowered as
    ``tests/hw/test_energy_differentiator.py`` lowers it."""

    BOUND = 1000

    @staticmethod
    def _signal(seed: int, n: int, quantized: bool) -> np.ndarray:
        rng = np.random.default_rng(seed)
        x = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        x[n // 3:n // 3 + n // 5] *= 20.0
        return quantize_iq16(x) if quantized else x

    @pytest.mark.parametrize("quantized", [True, False])
    @given(lengths=chunk_lengths, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_rows_and_tails_match_the_old_arithmetic(self, quantized,
                                                     lengths, seed):
        x = self._signal(seed, sum(lengths), quantized)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(energy_module, "EXACT_SUM_LENGTH", self.BOUND)
            planned = EnergyDifferentiator(12.0, 9.0)
            old = _OldEnergy(12.0, 9.0, self.BOUND)
            rows, expected = [], []
            start = 0
            for n in lengths:
                chunk = x[start:start + n]
                rows.append(planned.detect(chunk).copy())
                expected.append(old.detect(chunk))
                start += n
            rows = np.concatenate(rows, axis=1)
            np.testing.assert_array_equal(rows,
                                          np.concatenate(expected, axis=1))
            assert planned._energy_tail.tobytes() == old.energy_tail.tobytes()
            assert planned._sum_tail.tobytes() == old.sum_tail.tobytes()
            if quantized:
                # IQ16 sums are exact, so the chunking changes nothing.
                whole = EnergyDifferentiator(12.0, 9.0)
                np.testing.assert_array_equal(rows, whole.detect(x))
                assert (planned._energy_tail.tobytes()
                        == whole._energy_tail.tobytes())
                assert planned._sum_tail.tobytes() == whole._sum_tail.tobytes()

    @given(lengths=chunk_lengths, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_energy_sums_match_the_old_arithmetic(self, lengths, seed):
        x = self._signal(seed, sum(lengths), quantized=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(energy_module, "EXACT_SUM_LENGTH", self.BOUND)
            planned = EnergyDifferentiator()
            old = _OldEnergy(10.0, 10.0, self.BOUND)
            start = 0
            for n in lengths:
                chunk = x[start:start + n]
                assert (planned.energy_sums(chunk).tobytes()
                        == old.sums(chunk).tobytes())
                start += n
            assert planned._energy_tail.tobytes() == old.energy_tail.tobytes()


# ----------------------------------------------------------------------
# Duty ledger: a running total instead of a span walk


class _SpanWalkGuard:
    """The duty guard as it was: prune, then walk every span."""

    def __init__(self, config: WatchdogConfig) -> None:
        self.config = config
        self.spans: deque[tuple[int, int]] = deque()
        self.trips: list[tuple[int, str]] = []

    def _prune(self, now: int) -> None:
        horizon = now - self.config.duty_window_samples
        while self.spans and self.spans[0][1] <= horizon:
            self.spans.popleft()

    def _busy(self, now: int) -> int:
        lo = now - self.config.duty_window_samples
        busy = 0
        for start, end in self.spans:
            overlap = min(end, now) - max(start, lo)
            if overlap > 0:
                busy += overlap
        return busy

    def _record(self, start: int, end: int) -> None:
        if end > start:
            self.spans.append((start, end))

    def duty_cycle(self, now: int) -> float:
        self._prune(now)
        return self._busy(now) / self.config.duty_window_samples

    def admit_interval(self, start: int, end: int) -> bool:
        self._prune(start)
        window = self.config.duty_window_samples
        budget = self.config.max_duty_cycle * window
        projected = self._busy(start) + min(end - start, window)
        if projected > budget:
            self.trips.append((start, f"{projected / window:.3f}"))
            return False
        self._record(start, end)
        return True

    def continuous_allowance(self, chunk_start: int, n: int) -> int:
        self._prune(chunk_start)
        window = self.config.duty_window_samples
        budget = self.config.max_duty_cycle * window
        remaining = int(budget - self._busy(chunk_start))
        allowed = max(0, min(n, remaining))
        if allowed:
            self._record(chunk_start, chunk_start + allowed)
        if allowed < n:
            self.trips.append((chunk_start, f"{allowed}"))
        return allowed


#: (kind, step, length): the clock moves by ``step`` (sometimes back),
#: then an admit, a continuous chunk or a duty query at any time.
ledger_ops = st.lists(
    st.tuples(st.sampled_from(["admit", "continuous", "query"]),
              st.integers(-300, 900), st.integers(1, 700)),
    min_size=1, max_size=60)


class TestDutyLedger:
    @given(ops=ledger_ops, duty=st.sampled_from([0.2, 0.5, 0.9]),
           window=st.sampled_from([1, 500, 2000]))
    @settings(max_examples=150, deadline=None)
    def test_decisions_and_queries_match_the_span_walk(self, ops, duty,
                                                       window):
        config = WatchdogConfig(max_duty_cycle=duty,
                                duty_window_samples=window)
        ledger, walk = Watchdog(config), _SpanWalkGuard(config)
        clock = 0
        for kind, step, length in ops:
            clock = max(clock + step, 0)
            if kind == "admit":
                assert (ledger.admit_interval(clock, clock + length)
                        == walk.admit_interval(clock, clock + length))
                clock += length
            elif kind == "continuous":
                assert (ledger.continuous_allowance(clock, length)
                        == walk.continuous_allowance(clock, length))
                clock += length
            else:
                now = clock + step
                assert ledger.duty_cycle(now) == walk.duty_cycle(now)
        assert [trip.time for trip in ledger.trips] == \
            [time for time, _ in walk.trips]
        assert list(ledger._spans) == list(walk.spans)

    def test_veto_text_is_unchanged(self):
        ledger = Watchdog(WatchdogConfig(max_duty_cycle=0.5,
                                         duty_window_samples=1000))
        assert ledger.admit_interval(0, 400)
        assert not ledger.admit_interval(500, 900)
        [trip] = ledger.trips
        assert trip.detail == ("burst [500, 900) vetoed: projected duty "
                               "0.800 exceeds 0.500")


# ----------------------------------------------------------------------
# Transmit synthesis in place

#: Where a burst is cut into chunks: up to four cut points.
burst_cuts = st.lists(st.integers(1, 999), max_size=4, unique=True).map(sorted)


def _synthesized(tx: TransmitController, burst: JamEvent,
                 cuts: list[int]) -> np.ndarray:
    """The burst synthesized chunk by chunk into one zeroed buffer."""
    out = np.zeros(burst.end - burst.start, dtype=np.complex128)
    bounds = [0, *cuts, out.size]
    for lo, hi in zip(bounds, bounds[1:]):
        tx.synthesize(burst, burst.start + lo, hi - lo, out=out[lo:hi])
    return out


class TestWgnInPlace:
    @pytest.mark.parametrize("amplitude", [1.0, 0.37])
    @given(cuts=burst_cuts, start=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_synthesis_adds_the_scaled_draws(self, amplitude, cuts, start):
        tx = TransmitController(amplitude=amplitude, wgn_seed=99)
        burst = JamEvent(trigger_time=start, start=start, end=start + 1000,
                         waveform=JamWaveform.WGN)
        p = np.random.default_rng((99, start)).standard_normal(2 * 1000)
        expected = np.zeros(1000, dtype=np.complex128)
        expected += ((p[0::2] + 1j * p[1::2]) / np.sqrt(2.0)) * amplitude
        assert _synthesized(tx, burst, cuts).tobytes() == expected.tobytes()


def _old_add_cycled(source: np.ndarray, offset: int, out: np.ndarray,
                    amplitude: float) -> None:
    """Cycling as it was: each slice times the amplitude, then added."""
    size = source.size
    start = offset % size
    head = min(size - start, out.size)
    out[:head] += source[start:start + head] * amplitude
    periods, tail = divmod(out.size - head, size)
    if periods:
        grid = out[head:head + periods * size].reshape(periods, size)
        grid += source * amplitude
    if tail:
        out[out.size - tail:] += source[:tail] * amplitude


class TestReplayCycling:
    @pytest.mark.parametrize("amplitude", [1.0, 0.5])
    @given(cuts=burst_cuts, depth=st.integers(1, 80),
           trigger=st.integers(0, 150), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_slices_of_the_scaled_snapshot_match(self, amplitude, cuts,
                                                 depth, trigger, seed):
        rng = np.random.default_rng(seed)
        rx = quantize_iq16(0.3 * (rng.standard_normal(200)
                                  + 1j * rng.standard_normal(200)))
        controllers = []
        for scale in (1.0, amplitude):
            tx = TransmitController(waveform=JamWaveform.REPLAY,
                                    uptime_samples=1000,
                                    replay_length=depth, amplitude=scale)
            tx.observe_rx(rx[:50])
            [burst] = tx.schedule([50 + trigger], rx[50:], chunk_start=50)
            controllers.append(tx)
        snapshot = controllers[0]._interval_sources[burst.start]
        expected = np.zeros(1000, dtype=np.complex128)
        for lo, hi in zip([0, *cuts], [*cuts, 1000]):
            _old_add_cycled(snapshot, lo, expected[lo:hi], amplitude)
        got = _synthesized(controllers[1], burst, cuts)
        assert got.tobytes() == expected.tobytes()
