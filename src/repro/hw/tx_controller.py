"""The jamming transmit controller (paper §2.4).

Once the trigger state machine fires, the controller takes over the
transmit data path and emits one of three user-selectable waveforms:

1. a pseudorandom 25 MHz white Gaussian noise signal,
2. a repetitive replay of up to the 512 most recently received samples,
3. the waveform currently streamed to the transmit buffer by the host.

Jamming duration (uptime) ranges from 1 sample (40 ns) to 2^32 samples
(~40 s); an optional delay between trigger and transmission lets the
user target specific packet locations ("surgical" jamming).  The RF
response begins 8 FPGA clock cycles after the trigger (1 cycle to
initiate plus ~7 to populate the DUC), i.e. 80 ns — the paper's T_init.

The controller operates on absolute sample timestamps so the
surrounding core can run vectorized: triggers come in as timestamps,
jam intervals go out as ``(start, end)`` spans, and the waveform for a
chunk is synthesized only where intervals overlap the chunk — written
straight into the caller's transmit buffer when it passes one.  Each
WGN burst keeps one noise generator for its whole life, so a burst
spanning many chunks (continuous jamming included) draws every sample
once.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import units
from repro.errors import ConfigurationError, StreamError
from repro.runtime.buffers import ScratchBuffer

#: Clock cycles from trigger to first RF sample out of the DUC.
INIT_LATENCY_CLOCKS = 8

#: The same latency expressed in baseband samples (80 ns = 2 samples).
INIT_LATENCY_SAMPLES = INIT_LATENCY_CLOCKS // units.CLOCKS_PER_SAMPLE

#: Maximum replay-buffer depth in samples (paper §2.4).
MAX_REPLAY_LENGTH = 512

#: Maximum jam uptime in samples.  The hardware's 32-bit uptime
#: counter runs on the 100 MHz clock (2^32 cycles ~ 42.9 s, the
#: paper's "about 40 s"); at 4 clocks per baseband sample that is
#: 2^30 samples.
MAX_UPTIME_SAMPLES = 2 ** 32 // units.CLOCKS_PER_SAMPLE

#: Most WGN samples drawn and dropped in one call when a burst's stream
#: skips ahead, so a long gap never allocates more than 1 MiB.
_SKIP_BLOCK_SAMPLES = 1 << 16

#: The WGN scale, 1/sqrt(2) per component.  ``x / np.sqrt(2.0)`` for
#: complex ``x`` multiplies each component by this reciprocal (numpy's
#: complex-by-real division), so scaling the draws by it in place
#: gives the same bits; a true division would not.
_WGN_SCALE = np.float64(1.0 / np.sqrt(2.0))


class JamWaveform(enum.IntEnum):
    """Waveform presets, encoded as the 2-bit register field."""

    WGN = 0
    REPLAY = 1
    HOST_STREAM = 2


@dataclass(frozen=True)
class JamEvent:
    """One jam burst on the absolute sample timeline.

    ``start``/``end`` delimit the transmitted span (end exclusive);
    ``trigger_time`` is the FSM completion time that caused it.  The
    controller schedules it, the core synthesizes it, and the same
    record reaches ``CoreOutput.jams`` and ``JammingReport.jams``.
    """

    trigger_time: int
    start: int
    end: int
    waveform: JamWaveform


class _WgnStream:
    """One burst's noise generator and how far it has been drawn."""

    __slots__ = ("seed", "rng", "drawn")

    def __init__(self, seed: int, interval_start: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng((seed, interval_start))
        self.drawn = 0  # burst samples drawn so far


class TransmitController:
    """Schedules jam bursts and synthesizes the jamming waveform."""

    def __init__(self, waveform: JamWaveform = JamWaveform.WGN,
                 uptime_samples: int = 2500, delay_samples: int = 0,
                 wgn_seed: int = 0x5EED, replay_length: int = MAX_REPLAY_LENGTH,
                 amplitude: float = 1.0) -> None:
        self.waveform = waveform
        self.uptime_samples = uptime_samples
        self.delay_samples = delay_samples
        self.replay_length = replay_length
        self.amplitude = amplitude
        self._wgn_seed = int(wgn_seed)
        self._busy_until = -1
        # The replay capture: the last ``_captured`` received samples,
        # right-aligned in one fixed array updated in place.
        self._capture = np.zeros(MAX_REPLAY_LENGTH, dtype=np.complex128)
        self._captured = 0
        self._host_waveform = np.zeros(0, dtype=np.complex128)
        # Waveform snapshots per active interval, keyed by interval
        # start, already scaled by the amplitude.
        self._interval_sources: dict[int, np.ndarray] = {}
        # Live WGN streams per burst, keyed by burst start, and the
        # float64 scratch their draws land in.
        self._wgn_streams: dict[int, _WgnStream] = {}
        self._draws = ScratchBuffer(np.float64)

    # ------------------------------------------------------------------
    # Configuration

    @property
    def waveform(self) -> JamWaveform:
        """Selected jamming waveform preset."""
        return self._waveform

    @waveform.setter
    def waveform(self, value: JamWaveform) -> None:
        self._waveform = JamWaveform(value)

    @property
    def uptime_samples(self) -> int:
        """Jam burst length in baseband samples."""
        return self._uptime

    @uptime_samples.setter
    def uptime_samples(self, value: int) -> None:
        if not 1 <= value <= MAX_UPTIME_SAMPLES:
            raise ConfigurationError(
                f"uptime {value} outside [1, {MAX_UPTIME_SAMPLES}] samples"
            )
        self._uptime = int(value)

    @property
    def delay_samples(self) -> int:
        """Extra delay between trigger and burst start, in samples."""
        return self._delay

    @delay_samples.setter
    def delay_samples(self, value: int) -> None:
        if not 0 <= value <= MAX_UPTIME_SAMPLES:
            raise ConfigurationError("delay_samples must be a 32-bit count")
        self._delay = int(value)

    @property
    def replay_length(self) -> int:
        """Replay capture depth in samples (1..512)."""
        return self._replay_length

    @replay_length.setter
    def replay_length(self, value: int) -> None:
        if not 1 <= value <= MAX_REPLAY_LENGTH:
            raise ConfigurationError(
                f"replay length {value} outside [1, {MAX_REPLAY_LENGTH}]"
            )
        self._replay_length = int(value)

    @property
    def amplitude(self) -> float:
        """Full-scale amplitude of the synthesized waveform."""
        return self._amplitude

    @amplitude.setter
    def amplitude(self, value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise ConfigurationError("amplitude must be in (0, 1] full scale")
        self._amplitude = float(value)

    @property
    def wgn_seed(self) -> int:
        """Seed of the hardware WGN generator."""
        return self._wgn_seed

    @wgn_seed.setter
    def wgn_seed(self, value: int) -> None:
        self._wgn_seed = int(value) & 0x3FFF_FFFF

    def set_host_waveform(self, samples: np.ndarray) -> None:
        """Install the host-streamed transmit buffer (cycled during jams)."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise StreamError("host waveform must be a non-empty 1-D array")
        self._host_waveform = samples.copy()

    def reset(self) -> None:
        """Abort any active burst and clear capture history."""
        self._busy_until = -1
        self._captured = 0
        self._interval_sources.clear()
        self._wgn_streams.clear()

    # ------------------------------------------------------------------
    # Scheduling

    def schedule(self, trigger_times: list[int],
                 rx_chunk: np.ndarray | None = None,
                 chunk_start: int = 0,
                 admit: Callable[[int, int], bool] | None = None
                 ) -> list[JamEvent]:
        """Decide each FSM jam trigger, in time order, and commit it.

        Triggers that arrive while a previous burst (including its
        delay period) is still pending are ignored, as the hardware's
        single transmit pipeline cannot queue overlapping bursts.

        ``admit(start, end)``, when given, is asked about each trigger
        the pipeline is free for (the DSP core passes the watchdog's
        duty guard, :meth:`repro.hw.watchdog.Watchdog.admit_interval`).
        A vetoed trigger commits nothing: the pipeline stays free for
        the next trigger and no replay snapshot is taken.  An admitted
        one moves the busy horizon and comes back as a
        :class:`JamEvent`.

        ``rx_chunk`` is the received chunk starting at sample
        ``chunk_start`` that :meth:`observe_rx` has not been fed yet.
        A replay burst replays only samples received up to and
        including its trigger, so its snapshot comes from the capture
        followed by the chunk's samples up to the trigger; it is
        scaled by the amplitude once, here, so a replay burst keeps
        the amplitude it was scheduled with.
        """
        bursts: list[JamEvent] = []
        for trigger in trigger_times:
            if trigger < self._busy_until:
                continue
            start = trigger + INIT_LATENCY_SAMPLES + self._delay
            end = start + self._uptime
            if admit is not None and not admit(start, end):
                continue
            self._busy_until = end
            bursts.append(JamEvent(
                trigger_time=trigger, start=start, end=end,
                waveform=self._waveform,
            ))
            if self._waveform is JamWaveform.REPLAY:
                snapshot = self._capture_replay(rx_chunk,
                                                trigger - chunk_start)
                if self._amplitude != 1.0:
                    snapshot *= self._amplitude
                self._interval_sources[start] = snapshot
        return bursts

    @property
    def _rx_history(self) -> np.ndarray:
        """The captured samples, oldest first (a view of the capture)."""
        return self._capture[MAX_REPLAY_LENGTH - self._captured:]

    def _capture_replay(self, rx_chunk: np.ndarray | None,
                        local: int) -> np.ndarray:
        """Snapshot the last ``replay_length`` samples received so far.

        They are the capture followed by ``rx_chunk[:local + 1]``, the
        chunk's samples up to a trigger at chunk index ``local``.
        """
        upto = 0
        if rx_chunk is not None:
            upto = min(max(local + 1, 0), rx_chunk.size)
        length = self._replay_length
        if upto >= length:
            return rx_chunk[upto - length:upto].astype(np.complex128)
        kept = min(self._captured, length - upto)
        if kept + upto == 0:
            return np.zeros(1, dtype=np.complex128)
        snapshot = np.empty(kept + upto, dtype=np.complex128)
        snapshot[:kept] = self._capture[MAX_REPLAY_LENGTH - kept:]
        if upto:
            snapshot[kept:] = rx_chunk[:upto]
        return snapshot

    def observe_rx(self, rx_chunk: np.ndarray) -> None:
        """Feed received samples into the replay capture buffer.

        The capture shifts left by the chunk's surviving tail (at most
        ``MAX_REPLAY_LENGTH`` samples) and the tail lands at its end.
        """
        rx_chunk = np.asarray(rx_chunk, dtype=np.complex128)
        if rx_chunk.size == 0:
            return
        tail = rx_chunk[-MAX_REPLAY_LENGTH:]
        keep = MAX_REPLAY_LENGTH - tail.size
        if keep:
            self._capture[:keep] = self._capture[tail.size:]
        self._capture[keep:] = tail
        self._captured = min(self._captured + tail.size, MAX_REPLAY_LENGTH)

    # ------------------------------------------------------------------
    # Waveform synthesis

    def _add_wgn(self, interval_start: int, offset: int,
                 out: np.ndarray) -> None:
        """Add a burst's WGN, times amplitude, into ``out``.

        Deterministic WGN: a per-burst stream seeded from the burst
        start, which makes the synthesized waveform independent of how
        the timeline is chunked.  The burst's generator carries over
        between calls: a request that starts where the last one ended
        just continues it, one further ahead draws and drops the gap,
        and only one behind it (or a changed seed) starts the stream
        over.  The draws land in one float64 scratch, I and Q
        interleaved, are scaled in place and added into ``out`` as its
        complex view, so no complex temporary is built.
        """
        stream = self._wgn_streams.get(interval_start)
        if stream is None or stream.seed != self._wgn_seed \
                or offset < stream.drawn:
            stream = _WgnStream(self._wgn_seed, interval_start)
            self._wgn_streams[interval_start] = stream
        rng = stream.rng
        gap = offset - stream.drawn
        while gap:  # advance the stream over samples never sent
            step = min(gap, _SKIP_BLOCK_SAMPLES)
            rng.standard_normal(2 * step)
            gap -= step
        count = out.size
        draws = self._draws.view(2 * count)
        rng.standard_normal(out=draws)
        stream.drawn = offset + count
        draws *= _WGN_SCALE
        if self._amplitude != 1.0:
            draws *= self._amplitude
        out += draws.view(np.complex128)

    @staticmethod
    def _add_cycled(source: np.ndarray, offset: int,
                    out: np.ndarray) -> None:
        """Add ``source`` cycled from ``offset`` to ``out``.

        Wraps by slices: a head up to the end of ``source``, whole
        periods as one broadcast add, then a tail.
        """
        size = source.size
        start = offset % size
        head = min(size - start, out.size)
        out[:head] += source[start:start + head]
        periods, tail = divmod(out.size - head, size)
        if periods:
            # Splitting the one axis of a 1-D view is always a view.
            grid = out[head:head + periods * size].reshape(periods, size)
            grid += source
        if tail:
            out[out.size - tail:] += source[:tail]

    def synthesize(self, interval: JamEvent, chunk_start: int,
                   chunk_length: int, out: np.ndarray | None = None
                   ) -> tuple[int, np.ndarray]:
        """Waveform samples where ``interval`` overlaps the chunk.

        Returns ``(local_offset, samples)``; ``samples`` is empty when
        there is no overlap.  Without ``out`` the samples are new
        storage.  ``out`` is the chunk's transmit buffer, zero where
        no burst has been written: the samples are added into
        ``out[local_offset:local_offset + count]`` in place and that
        view is returned.
        """
        lo = max(interval.start, chunk_start)
        hi = min(interval.end, chunk_start + chunk_length)
        if hi <= lo:
            return 0, np.zeros(0, dtype=np.complex128)
        local = lo - chunk_start
        offset_in_burst = lo - interval.start
        count = hi - lo
        if out is None:
            wave = np.zeros(count, dtype=np.complex128)
        else:
            wave = out[local:local + count]
        if interval.waveform is JamWaveform.WGN:
            self._add_wgn(interval.start, offset_in_burst, wave)
        elif interval.waveform is JamWaveform.REPLAY:
            source = self._interval_sources.get(interval.start)
            if source is not None:
                self._add_cycled(source, offset_in_burst, wave)
        # An empty host transmit buffer radiates silence, as an
        # un-filled hardware FIFO would — never a crash.
        elif self._host_waveform.size:
            source = self._host_waveform
            if self._amplitude != 1.0:
                source = source * self._amplitude
            self._add_cycled(source, offset_in_burst, wave)
        return local, wave

    def release_interval(self, interval: JamEvent) -> None:
        """Drop the replay snapshot and noise stream of a finished burst."""
        self._interval_sources.pop(interval.start, None)
        self._wgn_streams.pop(interval.start, None)

    def cancel_interval(self, interval: JamEvent) -> None:
        """Abort a just-scheduled burst before any sample is emitted.

        Nothing in the model calls this: a vetoed burst is never
        committed, since :meth:`schedule` asks its ``admit`` check
        first.  It stays only because the end-to-end benchmark's traced
        pass (``benchmarks/e2e/workloads.py``) wraps it by name; once
        that pass stops wrapping it, it can go.
        """
        self._interval_sources.pop(interval.start, None)
        self._wgn_streams.pop(interval.start, None)
        if self._busy_until == interval.end:
            self._busy_until = interval.trigger_time
