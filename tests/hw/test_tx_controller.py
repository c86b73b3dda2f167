"""Tests for the jamming transmit controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError, StreamError
from repro.hw.tx_controller import (
    INIT_LATENCY_CLOCKS,
    INIT_LATENCY_SAMPLES,
    MAX_REPLAY_LENGTH,
    MAX_UPTIME_SAMPLES,
    JamWaveform,
    TransmitController,
)


class TestLatencyConstants:
    def test_init_latency_is_eight_clocks(self):
        # Paper: 1 cycle to initiate + ~7 to fill the DUC = 80 ns.
        assert INIT_LATENCY_CLOCKS == 8
        assert units.clocks_to_seconds(INIT_LATENCY_CLOCKS) == pytest.approx(80e-9)

    def test_init_latency_in_samples(self):
        assert INIT_LATENCY_SAMPLES == 2


class TestConfiguration:
    def test_uptime_range(self):
        tx = TransmitController()
        tx.uptime_samples = 1
        tx.uptime_samples = MAX_UPTIME_SAMPLES
        with pytest.raises(ConfigurationError):
            tx.uptime_samples = 0
        with pytest.raises(ConfigurationError):
            tx.uptime_samples = MAX_UPTIME_SAMPLES + 1

    def test_uptime_covers_paper_range(self):
        # 1 sample = 40 ns up to ~40 s.
        assert units.samples_to_seconds(1) == pytest.approx(40e-9)
        assert units.samples_to_seconds(MAX_UPTIME_SAMPLES) > 40.0

    def test_replay_length_range(self):
        tx = TransmitController()
        tx.replay_length = 1
        tx.replay_length = MAX_REPLAY_LENGTH
        with pytest.raises(ConfigurationError):
            tx.replay_length = 0
        with pytest.raises(ConfigurationError):
            tx.replay_length = MAX_REPLAY_LENGTH + 1

    def test_amplitude_range(self):
        tx = TransmitController()
        with pytest.raises(ConfigurationError):
            tx.amplitude = 0.0
        with pytest.raises(ConfigurationError):
            tx.amplitude = 1.5

    def test_delay_validation(self):
        tx = TransmitController()
        with pytest.raises(ConfigurationError):
            tx.delay_samples = -1

    def test_host_waveform_validation(self):
        tx = TransmitController()
        with pytest.raises(StreamError):
            tx.set_host_waveform(np.zeros(0, dtype=complex))


class TestScheduling:
    def test_burst_timing(self):
        tx = TransmitController(uptime_samples=100, delay_samples=0)
        intervals = tx.schedule([1000])
        assert len(intervals) == 1
        iv = intervals[0]
        assert iv.start == 1000 + INIT_LATENCY_SAMPLES
        assert iv.end == iv.start + 100

    def test_delay_shifts_burst(self):
        tx = TransmitController(uptime_samples=100, delay_samples=50)
        iv = tx.schedule([1000])[0]
        assert iv.start == 1000 + INIT_LATENCY_SAMPLES + 50

    def test_triggers_during_burst_ignored(self):
        tx = TransmitController(uptime_samples=100)
        intervals = tx.schedule([1000, 1010, 1050])
        assert len(intervals) == 1

    def test_trigger_after_burst_accepted(self):
        tx = TransmitController(uptime_samples=100)
        intervals = tx.schedule([1000, 1200])
        assert len(intervals) == 2

    def test_trigger_exactly_at_busy_end(self):
        tx = TransmitController(uptime_samples=100, delay_samples=0)
        first = tx.schedule([1000])[0]
        assert tx.schedule([first.end]) != []


class TestWgnSynthesis:
    def test_unit_power(self):
        tx = TransmitController(uptime_samples=50_000)
        iv = tx.schedule([0])[0]
        _off, wave = tx.synthesize(iv, 0, 60_000)
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_chunk_invariance(self):
        tx = TransmitController(uptime_samples=1000)
        iv = tx.schedule([100])[0]
        _o, whole = tx.synthesize(iv, 0, 2000)
        parts = []
        for start in range(0, 2000, 137):
            off, wave = tx.synthesize(iv, start, min(137, 2000 - start))
            chunk = np.zeros(min(137, 2000 - start), dtype=complex)
            chunk[off:off + wave.size] = wave
            parts.append(chunk)
        combined = np.concatenate(parts)
        ref = np.zeros(2000, dtype=complex)
        ref[102:1102] = whole
        assert np.allclose(combined, ref)

    def test_different_bursts_use_different_noise(self):
        tx = TransmitController(uptime_samples=100)
        iv1 = tx.schedule([0])[0]
        iv2 = tx.schedule([500])[0]
        _o1, w1 = tx.synthesize(iv1, 0, 1000)
        _o2, w2 = tx.synthesize(iv2, 0, 1000)
        assert not np.allclose(w1, w2)

    def test_amplitude_scales_waveform(self):
        tx = TransmitController(uptime_samples=10_000)
        tx.amplitude = 0.5
        iv = tx.schedule([0])[0]
        _o, wave = tx.synthesize(iv, 0, 10_002)
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(0.25, rel=0.05)

    def test_no_overlap_returns_empty(self):
        tx = TransmitController(uptime_samples=10)
        iv = tx.schedule([100])[0]
        _o, wave = tx.synthesize(iv, 500, 100)
        assert wave.size == 0


class TestReplay:
    def test_replays_captured_samples(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=64, replay_length=32)
        captured = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        tx.observe_rx(captured)
        iv = tx.schedule([100])[0]
        _o, wave = tx.synthesize(iv, 0, 300)
        # 64 samples of cyclic replay of the 32 captured samples.
        assert np.allclose(wave[:32], captured)
        assert np.allclose(wave[32:64], captured)

    def test_capture_depth_limited(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=16, replay_length=16)
        history = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        tx.observe_rx(history)
        iv = tx.schedule([200])[0]
        _o, wave = tx.synthesize(iv, 0, 300)
        assert np.allclose(wave[:16], history[-16:])

    def test_snapshot_frozen_at_trigger(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY,
                                uptime_samples=8, replay_length=8)
        first = rng.standard_normal(8) + 0j
        tx.observe_rx(first)
        iv = tx.schedule([50])[0]
        tx.observe_rx(rng.standard_normal(8) + 0j)  # arrives after trigger
        _o, wave = tx.synthesize(iv, 0, 100)
        assert np.allclose(wave[:8], first)

    @pytest.mark.parametrize("chunk", [1, 100, 511, MAX_REPLAY_LENGTH,
                                       513, 2000])
    def test_history_is_the_stream_tail(self, rng, chunk):
        """For chunks below, at and above the depth, the capture buffer
        holds the last MAX_REPLAY_LENGTH samples of the whole stream."""
        stream = rng.standard_normal(3 * MAX_REPLAY_LENGTH + 37) \
            + 1j * rng.standard_normal(3 * MAX_REPLAY_LENGTH + 37)
        tx = TransmitController()
        for start in range(0, stream.size, chunk):
            tx.observe_rx(stream[start:start + chunk])
            seen = stream[:start + chunk]
            assert tx._rx_history.tobytes() == \
                seen[-MAX_REPLAY_LENGTH:].tobytes()

    @pytest.mark.parametrize("captured, triggers, replay_length", [
        (0, [0], 8),            # nothing captured: the chunk's first sample
        (0, [-5], 8),           # a trigger before the chunk: empty capture
        (3, [2], 8),            # capture and chunk prefix both short
        (100, [3], 32),         # mostly capture
        (600, [40], MAX_REPLAY_LENGTH),
        (600, [700], MAX_REPLAY_LENGTH),   # the chunk prefix alone
        (5, [999], 16),         # a trigger past the chunk's end
        (50, [10, 30, 300], 64),           # several bursts in one chunk
    ])
    def test_snapshot_from_chunk_prefix(self, rng, captured, triggers,
                                        replay_length):
        """Scheduling with the unobserved chunk equals feeding the
        chunk up to each trigger first, then scheduling that trigger."""
        history = rng.standard_normal(captured) + 1j * rng.standard_normal(
            captured)
        chunk = rng.standard_normal(800) + 1j * rng.standard_normal(800)
        start = 1000
        lazy, eager = (TransmitController(
            waveform=JamWaveform.REPLAY, uptime_samples=10,
            replay_length=replay_length) for _ in range(2))
        lazy.observe_rx(history)
        eager.observe_rx(history)
        times = [start + t for t in triggers]
        got = lazy.schedule(times, chunk, start)
        lazy.observe_rx(chunk)
        expected, fed = [], 0
        for time in times:
            upto = min(max(time - start + 1, 0), chunk.size)
            if upto > fed:
                eager.observe_rx(chunk[fed:upto])
                fed = upto
            expected += eager.schedule([time])
        eager.observe_rx(chunk[fed:])
        assert got == expected
        for interval in got:
            assert lazy._interval_sources[interval.start].tobytes() == \
                eager._interval_sources[interval.start].tobytes()
        assert lazy._rx_history.tobytes() == eager._rx_history.tobytes()

    def test_history_does_not_alias_the_chunk(self, rng):
        tx = TransmitController()
        chunk = rng.standard_normal(1000) + 0j
        tx.observe_rx(chunk)
        chunk[:] = 0
        assert np.all(tx._rx_history != 0)

    def test_release_interval_drops_snapshot(self, rng):
        tx = TransmitController(waveform=JamWaveform.REPLAY, uptime_samples=8)
        tx.observe_rx(rng.standard_normal(8) + 0j)
        iv = tx.schedule([10])[0]
        tx.release_interval(iv)
        assert tx._interval_sources == {}


class TestHostStream:
    def test_cycles_host_buffer(self):
        tx = TransmitController(waveform=JamWaveform.HOST_STREAM,
                                uptime_samples=10)
        host = np.array([1, 2, 3, 4], dtype=complex)
        tx.set_host_waveform(host)
        iv = tx.schedule([0])[0]
        _o, wave = tx.synthesize(iv, 0, 20)
        expected = np.array([1, 2, 3, 4, 1, 2, 3, 4, 1, 2], dtype=complex)
        assert np.allclose(wave, expected)

    def test_missing_host_buffer_radiates_silence(self):
        # An un-filled hardware FIFO transmits zeros; it must never
        # crash the data path (found by register fuzzing).
        tx = TransmitController(waveform=JamWaveform.HOST_STREAM,
                                uptime_samples=4)
        iv = tx.schedule([0])[0]
        _off, wave = tx.synthesize(iv, 0, 10)
        assert wave.size == 4
        assert not wave.any()


class TestReset:
    def test_reset_aborts_busy_state(self):
        tx = TransmitController(uptime_samples=1000)
        tx.schedule([100])
        tx.reset()
        assert tx.schedule([150]) != []
