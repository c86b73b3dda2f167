"""The run-owned transmit path, checked against closed forms.

``ReactiveJammer.run`` owns one transmit buffer and every chunk writes
its bursts into its own span of it.  These tests pin what lands there:
over each jam's ``[start, end)`` the samples equal the waveform's
closed form byte for byte and everywhere else they are zero, however
the stream is cut into chunks.  They also pin the cost model — a WGN
burst keeps one generator for its whole life and draws each
transmitted sample once — and who owns the buffer a chunk comes back
in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import DegradationPolicy, ReactiveJammer
from repro.core.presets import JammerPersonality, continuous_jammer
from repro.dsp.fixed_point import quantize_iq16
from repro.errors import StreamError
from repro.hw.dsp_core import CustomDspCore
from repro.hw.trigger import TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.usrp import UsrpN210
from repro.hw.watchdog import TRIP_DUTY_CYCLE, Watchdog, WatchdogConfig

N = 3000
#: Burst length: longer than most chunks a split draws.
UPTIME = 300
#: Replay depth: shorter than the uptime, so replay wraps.
REPLAY_LENGTH = 32
AMPLITUDE = 0.75
#: Where the capture's 40 dB energy rises start.
RISES = (400, 1500, 2400)
HOST = (np.random.default_rng(3).standard_normal(77)
        + 1j * np.random.default_rng(4).standard_normal(77))

#: Up to five segments, each run with its own chunk size.
splits = st.tuples(
    st.lists(st.integers(1, N - 1), max_size=4, unique=True).map(sorted),
    st.lists(st.integers(1, 700), min_size=5, max_size=5),
)


def _capture(n: int = N, rises=RISES) -> np.ndarray:
    rng = np.random.default_rng(7)
    rx = 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for start in rises:
        rx[start:start + 200] *= 100.0
    return rx


def _jammer(waveform: JamWaveform = JamWaveform.WGN, *,
            continuous: bool = False, uptime: int = UPTIME,
            watchdog: Watchdog | None = None) -> ReactiveJammer:
    jammer = ReactiveJammer(watchdog=watchdog)
    personality = continuous_jammer() if continuous else JammerPersonality(
        name="oracle", uptime_samples=uptime, waveform=waveform)
    jammer.configure(DetectionConfig(), JammingEventBuilder().on_energy_rise(),
                     personality)
    jammer.driver.set_replay_length(REPLAY_LENGTH)
    tx = jammer.device.core.tx
    tx.amplitude = AMPLITUDE
    tx.set_host_waveform(HOST)
    return jammer


def _preamble_capture(n: int, starts) -> np.ndarray:
    """Faint noise with the short-preamble template added at ``starts``."""
    rng = np.random.default_rng(5)
    rx = 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    template = wifi_short_preamble_template()
    for start in starts:
        rx[start:start + template.size] += template
    return rx


def _preamble_jammer(personality: JammerPersonality,
                     watchdog: Watchdog | None = None) -> ReactiveJammer:
    """A jammer whose one trigger is the short-preamble correlator."""
    jammer = ReactiveJammer(watchdog=watchdog)
    jammer.configure(DetectionConfig(template=wifi_short_preamble_template(),
                                     xcorr_threshold=20_000),
                     JammingEventBuilder().on_correlation(), personality)
    return jammer


def _run_split(jammer: ReactiveJammer, rx: np.ndarray, split,
               degradation=DegradationPolicy.FAIL_FAST):
    """Run ``rx`` cut at ``split``'s positions, each segment with its
    own chunk size; the tx, the jams and every chunk's span."""
    cuts, chunk_sizes = split
    bounds = [0, *cuts, rx.size]
    tx, jams, spans = [], [], []
    for lo, hi, chunk in zip(bounds, bounds[1:], chunk_sizes):
        report = jammer.run(rx[lo:hi], chunk_size=chunk,
                            degradation=degradation)
        tx.append(report.tx)
        jams.extend(report.jams)
        spans.extend((start, min(start + chunk, hi))
                     for start in range(lo, hi, chunk))
    return np.concatenate(tx), jams, spans


def _wgn(seed: int, start: int, count: int) -> np.ndarray:
    pairs = np.random.default_rng((seed, start)).standard_normal(2 * count)
    return (pairs[0::2] + 1j * pairs[1::2]) / np.sqrt(2.0) * AMPLITUDE


def _tiled(source: np.ndarray, count: int) -> np.ndarray:
    return source[np.arange(count) % source.size] * AMPLITUDE


def _expected(jammer: ReactiveJammer, rx: np.ndarray, jams,
              skipped=()) -> np.ndarray:
    """Each jam's closed form over its span, zero elsewhere and over
    skipped chunks.  A replay burst tiles the last ``REPLAY_LENGTH``
    quantized samples the core saw up to its trigger."""
    seed = jammer.device.core.tx.wgn_seed
    received = quantize_iq16(np.where(np.isnan(rx), 0, rx))
    seen = np.ones(rx.size, dtype=bool)
    for lo, hi in skipped:
        seen[lo:hi] = False
    expected = np.zeros(rx.size, dtype=np.complex128)
    for jam in jams:
        count = min(jam.end, rx.size) - jam.start
        if count <= 0:
            continue
        if jam.waveform is JamWaveform.WGN:
            wave = _wgn(seed, jam.start, count)
        elif jam.waveform is JamWaveform.REPLAY:
            upto = jam.trigger_time + 1
            capture = received[:upto][seen[:upto]][-REPLAY_LENGTH:]
            wave = _tiled(capture, count)
        else:
            wave = _tiled(HOST, count)
        expected[jam.start:jam.start + count] = wave
    for lo, hi in skipped:
        expected[lo:hi] = 0
    return expected


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    # An int64 view compares bit patterns: -0.0 != +0.0, NaN == NaN.
    np.testing.assert_array_equal(actual.view(np.int64),
                                  expected.view(np.int64))


class TestOracle:
    @pytest.mark.parametrize("waveform", list(JamWaveform))
    @given(split=splits)
    @settings(max_examples=25, deadline=None)
    def test_bursts_match_their_closed_form(self, waveform, split):
        jammer = _jammer(waveform)
        rx = _capture()
        tx, jams, _spans = _run_split(jammer, rx, split)
        assert set(RISES) <= {jam.trigger_time for jam in jams}
        _assert_bytes_equal(tx, _expected(jammer, rx, jams))

    @given(split=splits)
    @settings(max_examples=25, deadline=None)
    def test_continuous_noise_is_one_stream(self, split):
        jammer = _jammer(continuous=True)
        tx, _jams, _spans = _run_split(jammer, _capture(), split)
        # The flag was set at sample 0, so the stream starts there.
        _assert_bytes_equal(tx, _wgn(jammer.device.core.tx.wgn_seed, 0, N))

    @given(split=splits)
    @settings(max_examples=25, deadline=None)
    def test_duty_guard_gaps_skip_the_stream_ahead(self, split):
        watchdog = Watchdog(WatchdogConfig(max_duty_cycle=0.3,
                                           duty_window_samples=1000))
        jammer = _jammer(continuous=True, watchdog=watchdog)
        tx, _jams, spans = _run_split(jammer, _capture(), split)
        stream = _wgn(jammer.device.core.tx.wgn_seed, 0, N)
        # The guard lets each chunk send a prefix; what it withholds is
        # skipped in the stream, not delayed.
        for lo, hi in spans:
            sent = lo + int(np.count_nonzero(tx[lo:hi]))
            _assert_bytes_equal(tx[lo:sent], stream[lo:sent])
            _assert_bytes_equal(tx[sent:hi], np.zeros(hi - sent, complex))
        sent = np.flatnonzero(tx)
        assert 0 < sent.size < N
        assert sent[-1] > sent[0] + sent.size  # resumed after a gap

    @given(split=splits, nan_at=st.integers(0, N - 1))
    @settings(max_examples=25, deadline=None)
    def test_skipped_chunk_reads_zeros(self, split, nan_at):
        jammer = _jammer(uptime=1000)
        rx = _capture()
        rx[nan_at] = np.nan
        tx, jams, spans = _run_split(jammer, rx, split,
                                     DegradationPolicy.SKIP_AND_LOG)
        skipped = [(lo, hi) for lo, hi in spans if lo <= nan_at < hi]
        _assert_bytes_equal(tx, _expected(jammer, rx, jams, skipped))

    @pytest.mark.parametrize("mode", ["wgn", "replay", "host", "continuous",
                                      "duty_guard", "duc_gain"])
    def test_usrp_run_writes_the_same_bytes(self, mode):
        def build() -> ReactiveJammer:
            if mode in ("continuous", "duty_guard"):
                watchdog = Watchdog(WatchdogConfig(
                    max_duty_cycle=0.3, duty_window_samples=1000)) \
                    if mode == "duty_guard" else None
                return _jammer(continuous=True, watchdog=watchdog)
            waveform = {"replay": JamWaveform.REPLAY,
                        "host": JamWaveform.HOST_STREAM
                        }.get(mode, JamWaveform.WGN)
            jammer = _jammer(waveform)
            if mode == "duc_gain":
                jammer.device.set_tx_amplitude_db(-6.0)
            return jammer

        rx = _capture()
        reference = build().run(rx, chunk_size=256).tx
        assert np.count_nonzero(reference)
        device_tx = build().device.run(rx, chunk_size=256).tx
        _assert_bytes_equal(device_tx, reference)
        # Chunk by chunk without a destination: the allocating path.
        device = build().device
        chunked = np.concatenate([device.process(rx[start:start + 256]).tx
                                  for start in range(0, N, 256)])
        _assert_bytes_equal(chunked, reference)


def _guarded_jammer(waveform: JamWaveform = JamWaveform.WGN
                    ) -> ReactiveJammer:
    """400-sample bursts under a duty guard of 0.5 over 1000 samples."""
    return _preamble_jammer(
        JammerPersonality(name="guarded", uptime_samples=400,
                          waveform=waveform),
        Watchdog(WatchdogConfig(max_duty_cycle=0.5,
                                duty_window_samples=1000)))


def _decisions(jammer: ReactiveJammer, jams):
    """The committed bursts and the watchdog's trips, as tuples."""
    return ([(jam.trigger_time, jam.start, jam.end) for jam in jams],
            [(trip.time, trip.reason)
             for trip in jammer.device.core.watchdog.trips])


class TestDutyGuardDecision:
    """The duty guard judges each trigger the pipeline is free for,
    once and in time order, before the controller commits it.

    Preambles at 0, 1000 and 1300 trigger at 63, 1063 and 1363.  The
    burst [65, 465) is admitted.  [1065, 1465) would make the window
    ending at 1065 80% busy, so it is vetoed and never occupies the
    pipeline.  The trigger at 1363 finds the pipeline free, and
    [1365, 1765) keeps the window ending at 1365 at the 50% budget.
    However the stream is cut, that is the outcome.
    """

    RX = _preamble_capture(N, (0, 1000, 1300))
    DECIDED = ([(63, 65, 465), (1363, 1365, 1765)],
               [(1065, TRIP_DUTY_CYCLE)])

    @pytest.mark.parametrize("chunk", [N, 1150, 64])
    def test_chunk_size_changes_no_decision(self, chunk):
        jammer = _guarded_jammer()
        report = jammer.run(self.RX, chunk_size=chunk)
        assert _decisions(jammer, report.jams) == self.DECIDED

    @given(split=splits)
    @settings(max_examples=25, deadline=None)
    def test_any_split_changes_no_decision(self, split):
        jammer = _guarded_jammer()
        _tx, jams, _spans = _run_split(jammer, self.RX, split)
        assert _decisions(jammer, jams) == self.DECIDED

    @pytest.mark.parametrize("chunk", [N, 64])
    def test_a_veto_takes_no_replay_snapshot(self, monkeypatch, chunk):
        jammer = _guarded_jammer(JamWaveform.REPLAY)
        tx = jammer.device.core.tx
        snapshots = []
        capture = tx._capture_replay

        def counted(rx_chunk, local):
            snapshots.append(local)
            return capture(rx_chunk, local)

        monkeypatch.setattr(tx, "_capture_replay", counted)
        report = jammer.run(self.RX, chunk_size=chunk)
        assert _decisions(jammer, report.jams) == self.DECIDED
        assert len(snapshots) == len(report.jams)


class TestContinuousIgnoresTriggers:
    """An always-on jammer commits no triggered burst: the report lists
    none, and the duty guard judges none.  Preambles at 1000 and 4000
    fire the correlator and change nothing on the transmit side."""

    @pytest.mark.parametrize("guarded", [False, True])
    def test_triggers_change_nothing(self, guarded):
        def run(starts):
            watchdog = Watchdog(WatchdogConfig(
                max_duty_cycle=0.5, duty_window_samples=2000)) \
                if guarded else None
            jammer = _preamble_jammer(continuous_jammer(), watchdog)
            report = jammer.run(_preamble_capture(6000, starts),
                                chunk_size=1000)
            return jammer, report

        jammer, report = run((1000, 4000))
        quiet = run(())[1]
        assert report.detections_by_source(TriggerSource.XCORR)
        assert not quiet.detections_by_source(TriggerSource.XCORR)
        assert report.jams == []
        assert jammer.driver.jam_count() == 0
        _assert_bytes_equal(report.tx, quiet.tx)
        assert report.health.watchdog_trips == quiet.health.watchdog_trips
        if guarded:
            # Only the continuous stream's throttles.
            assert len(report.health.watchdog_trips) == 4
            assert all(trip.detail.startswith("continuous")
                       for trip in report.health.watchdog_trips)
        else:
            assert np.count_nonzero(report.tx) == report.tx.size


class _DrawCounter:
    """Counts the generators ``np.random.default_rng`` builds and the
    normals drawn from them."""

    def __init__(self, monkeypatch) -> None:
        self.generators = 0
        self.normals = 0
        real = np.random.default_rng
        counter = self

        class Counted:
            def __init__(self, seed) -> None:
                self._rng = real(seed)

            def standard_normal(self, size):
                counter.normals += int(np.prod(size))
                return self._rng.standard_normal(size)

        def default_rng(seed=None):
            counter.generators += 1
            return Counted(seed)

        monkeypatch.setattr(np.random, "default_rng", default_rng)


class TestLinearity:
    """One generator per burst, two normals per transmitted sample."""

    CHUNK = 512

    def test_continuous_run(self, monkeypatch):
        jammer = _jammer(continuous=True)
        rx = _capture(16 * self.CHUNK)
        draws = _DrawCounter(monkeypatch)
        report = jammer.run(rx, chunk_size=self.CHUNK)
        assert np.count_nonzero(report.tx) == rx.size
        assert draws.generators == 1
        assert draws.normals == 2 * rx.size

    def test_burst_spanning_chunks(self, monkeypatch):
        jammer = _jammer(uptime=5 * self.CHUNK)
        # Against the detector's empty history the capture's first
        # samples are an energy rise: one burst over six chunks.
        rx = _capture(16 * self.CHUNK, rises=())
        draws = _DrawCounter(monkeypatch)
        report = jammer.run(rx, chunk_size=self.CHUNK)
        [jam] = report.jams
        assert jam.end <= rx.size
        assert draws.generators == 1
        assert draws.normals == 2 * (jam.end - jam.start)


class TestBufferOwnership:
    def _chunk(self, n: int = 256) -> np.ndarray:
        rng = np.random.default_rng(11)
        return 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    def test_core_returns_the_callers_buffer(self):
        buffer = np.zeros(256, dtype=np.complex128)
        out = CustomDspCore().process(self._chunk(), tx_out=buffer)
        assert out.tx is buffer

    @pytest.mark.parametrize("gain_db", [0.0, -6.0])
    def test_device_returns_the_callers_buffer(self, gain_db):
        device = UsrpN210()
        device.set_tx_amplitude_db(gain_db)
        buffer = np.zeros(256, dtype=np.complex128)
        assert device.process(self._chunk(), tx_out=buffer).tx is buffer

    def test_without_tx_out_every_call_returns_fresh_storage(self):
        core = CustomDspCore()
        first, second = (core.process(self._chunk()).tx for _ in range(2))
        assert not np.shares_memory(first, second)
        device = UsrpN210()
        first, second = (device.process(self._chunk()).tx for _ in range(2))
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("buffer", [
        np.zeros(255, dtype=np.complex128),
        np.zeros(256, dtype=np.complex64),
        np.zeros((2, 128), dtype=np.complex128),
    ])
    def test_tx_out_must_fit_the_chunk(self, buffer):
        core = CustomDspCore()
        with pytest.raises(StreamError):
            core.process(self._chunk(), tx_out=buffer)
        assert core.clock == 0
