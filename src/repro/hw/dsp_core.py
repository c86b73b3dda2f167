"""The custom DSP core: detection + jamming control (paper Fig. 2).

This block sits inside the N210's DDC chain.  It wires together the
four functional blocks — cross-correlator, energy differentiator,
trigger state machine, and transmit controller — and exposes the
register bus the host uses for run-time reconfiguration.

Processing model: the core consumes received baseband chunks (25 MSPS,
16-bit-quantized complex) and produces the transmit chunk for the same
span of the timeline plus event records (detections and jam bursts)
stamped with absolute sample indices.  Internally each chunk takes one
detection step: the correlator's ``K`` trigger rows and the energy
differentiator's two are written into one ``(K + 2, n)`` boolean
plane, its rising edges are taken once against one carry, and the
chunk's events come from one ``nonzero`` over them.  The FSM and
transmit controller, whose state changes only at events, walk the
events.  Tests validate this fast path against a sample-by-sample
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.fixed_point import quantize_iq16
from repro.errors import ConfigurationError, RegisterError, StreamError
from repro.hw import register_map as regmap
from repro.telemetry.tracer import CAT_DETECTOR, CAT_TX, NULL_TRACER, Tracer
from repro.hw.watchdog import Watchdog
from repro.hw.cross_correlator import (
    DEFAULT_BANK_LABELS,
    METRIC_MAX,
    CrossCorrelator,
)
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.registers import UserRegisterBus, unpack_signed_fields
from repro.hw.trigger import (
    TriggerMode,
    TriggerSource,
    TriggerStateMachine,
)
from repro.hw.tx_controller import JamEvent, JamWaveform, TransmitController
from repro.kernels import edge_mask
from repro.runtime.buffers import PlanCache, ScratchBuffer

# Trigger sources bound once: the per-chunk event builder tags every
# edge with one of them.
_XCORR = TriggerSource.XCORR
_ENERGY_HIGH = TriggerSource.ENERGY_HIGH
_ENERGY_LOW = TriggerSource.ENERGY_LOW

#: The protocol of the legacy correlator's one bank: none.
_LEGACY_PROTOCOLS = (None,)


@dataclass(frozen=True)
class DetectionEvent:
    """A rising-edge detection from one of the detector blocks.

    ``protocol`` names the correlator bank that fired when the core
    runs in multi-standard mode (the ``which_protocol`` telemetry
    dimension); it is ``None`` for energy detections and for the
    legacy correlator.
    """

    time: int
    source: TriggerSource
    protocol: str | None = None


@dataclass
class CoreOutput:
    """Result of processing one received chunk."""

    tx: np.ndarray
    detections: list[DetectionEvent] = field(default_factory=list)
    jams: list[JamEvent] = field(default_factory=list)


class CustomDspCore:
    """The paper's custom DSP core with its register-bus control plane."""

    def __init__(self, bus: UserRegisterBus | None = None,
                 watchdog: Watchdog | None = None) -> None:
        self.bus = bus if bus is not None else UserRegisterBus()
        #: Optional in-fabric watchdog (duty guard, re-arm timeout,
        #: safe state).  ``None`` reproduces the unguarded core.
        self.watchdog = watchdog
        # The two correlators behind the ``correlator`` and ``banked``
        # properties; the same instances for the core's lifetime.
        self._correlator = CrossCorrelator()
        self._banked = CrossCorrelator()
        # Coefficient words latch: a write stores its word and marks
        # the legacy correlator or its live bank stale, and the stale
        # words are loaded once, before the next chunk or the next read
        # of either correlator (``_apply_latched_words``).
        self._legacy_words_stale = False
        self._stale_banks: set[int] = set()
        #: Host-side protocol names for the banked correlator; strings
        #: cannot cross the register bus, so the host (driver) sets
        #: them directly before programming the bank count.
        self.bank_labels = list(DEFAULT_BANK_LABELS)
        self._bank_count = 0
        self._bank_select = 0
        # Per-bank coefficient shadow storage behind the windowed
        # write path: words latch into the *selected* bank's slot.
        self._bank_words_i = [[0] * regmap.COEFF_WORDS
                              for _ in range(regmap.MAX_BANKS)]
        self._bank_words_q = [[0] * regmap.COEFF_WORDS
                              for _ in range(regmap.MAX_BANKS)]
        # METRIC_MAX never fires (the trigger needs metric > threshold),
        # matching the legacy correlator's quiet power-on default.
        self._bank_thresholds = np.full(regmap.MAX_BANKS, METRIC_MAX,
                                        dtype=np.int64)
        self._protocol_registry = None
        self._protocol_counters: dict[str, object] = {}
        self.energy = EnergyDifferentiator()
        self.fsm = TriggerStateMachine([TriggerSource.ENERGY_HIGH])
        self.fsm.watchdog = watchdog
        self.tx = TransmitController()
        #: Telemetry probe; the null tracer by default (see
        #: :mod:`repro.telemetry` — opt-in observability).
        self._tracer: Tracer = NULL_TRACER
        self._clock = 0  # absolute index of the next sample to process
        # One trigger carry per correlator: the last column of its K
        # bank rows and of the two energy rows, from the previous chunk
        # that correlator ran.  The energy part follows the data path
        # across a bank-count switch (``_set_bank_count``).
        self._legacy_carry = np.zeros(3, dtype=bool)
        self._banked_carry = np.zeros(3, dtype=bool)
        # The (K + 2, n) trigger plane and its edge mask share one
        # scratch; a plan per (chunk length, bank set) holds the views.
        self._planes = ScratchBuffer(np.bool_)
        self._plans = PlanCache(self._plan, self._planes)
        self._active_intervals: list[JamEvent] = []
        self._continuous_since: int | None = None
        self.detection_counts = {source: 0 for source in TriggerSource}
        self.jam_count = 0
        self._jammer_enabled = True
        self._antenna_bits = 0
        self._wire_registers()

    # ------------------------------------------------------------------
    # Register control plane

    def _wire_registers(self) -> None:
        for offset in range(regmap.COEFF_WORDS):
            self.bus.watch(regmap.REG_COEFF_I_BASE + offset,
                           self._latch_legacy_word)
            self.bus.watch(regmap.REG_COEFF_Q_BASE + offset,
                           self._latch_legacy_word)
        self.bus.watch(regmap.REG_XCORR_THRESHOLD, self._set_xcorr_threshold)
        self.bus.watch(regmap.REG_ENERGY_THRESHOLD_HIGH,
                       self._set_energy_high)
        self.bus.watch(regmap.REG_ENERGY_THRESHOLD_LOW,
                       self._set_energy_low)
        for address, handler in (
            (regmap.REG_TRIGGER_CONFIG, self._set_trigger_config),
            (regmap.REG_TRIGGER_WINDOW, self._set_trigger_window),
            (regmap.REG_JAM_DELAY, self._set_jam_delay),
            (regmap.REG_JAM_UPTIME, self._set_jam_uptime),
            (regmap.REG_JAM_WAVEFORM, self._set_jam_waveform),
            (regmap.REG_CONTROL_FLAGS, self._set_control_flags),
            (regmap.REG_REPLAY_LENGTH, self._set_replay_length),
            (regmap.REG_BANK_COUNT, self._set_bank_count),
            (regmap.REG_BANK_SELECT, self._set_bank_select),
        ):
            self.bus.watch(address, self._guarded(address, handler))
        for offset in range(regmap.COEFF_WORDS):
            self.bus.watch(regmap.REG_BANK_COEFF_I_BASE + offset,
                           self._bank_coeff_watch(self._bank_words_i,
                                                  offset))
            self.bus.watch(regmap.REG_BANK_COEFF_Q_BASE + offset,
                           self._bank_coeff_watch(self._bank_words_q,
                                                  offset))
        for index in range(regmap.MAX_BANKS):
            self.bus.watch(regmap.REG_BANK_THRESHOLD_BASE + index,
                           self._bank_threshold_watch(index))

    def _guarded(self, address, handler):
        """Route a register decode through the watchdog's safe state.

        Without a watchdog (or with ``safe_state_on_illegal`` off) an
        undecodable register word raises straight into the writer, as
        before.  With one, the register is flagged illegal and the
        core keeps running with transmission suppressed until a legal
        word lands on the same address.
        """
        def wrapped(value: int) -> None:
            try:
                handler(value)
            except ConfigurationError as exc:
                wd = self.watchdog
                if wd is not None and wd.config.safe_state_on_illegal:
                    wd.flag_illegal(address, self._clock, str(exc))
                    return
                raise
            if self.watchdog is not None:
                self.watchdog.clear_illegal(address)
        return wrapped

    def _latch_legacy_word(self, _value: int) -> None:
        # The bus holds the word; the correlator loads it when applied.
        self._legacy_words_stale = True

    def _apply_latched_words(self) -> None:
        """Load the coefficient words written since the last apply.

        One ``prepare_coefficients`` per stale correlator bank, however
        many of its 14 words were written.  A no-op when nothing is
        pending, which is every chunk outside a reprogramming.
        """
        if self._legacy_words_stale:
            self._legacy_words_stale = False
            self._reload_coefficients()
        if self._stale_banks:
            stale, self._stale_banks = self._stale_banks, set()
            for index in sorted(stale):
                coeffs_i, coeffs_q = self._unpacked_bank(index)
                self._banked.load_bank(index, coeffs_i, coeffs_q)

    def _reload_coefficients(self) -> None:
        words_i = [self.bus.read(regmap.REG_COEFF_I_BASE + k)
                   for k in range(regmap.COEFF_WORDS)]
        words_q = [self.bus.read(regmap.REG_COEFF_Q_BASE + k)
                   for k in range(regmap.COEFF_WORDS)]
        coeffs_i = unpack_signed_fields(words_i, regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        coeffs_q = unpack_signed_fields(words_q, regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        self._correlator.load_coefficients(np.array(coeffs_i),
                                           np.array(coeffs_q))

    def _unpacked_bank(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        coeffs_i = unpack_signed_fields(self._bank_words_i[index],
                                        regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        coeffs_q = unpack_signed_fields(self._bank_words_q[index],
                                        regmap.COEFF_BITS,
                                        regmap.CORRELATOR_LENGTH)
        return np.array(coeffs_i), np.array(coeffs_q)

    def _set_bank_count(self, value: int) -> None:
        count = int(value)
        if not 0 <= count <= regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 0..{regmap.MAX_BANKS}, got {count}"
            )
        # Every live bank is (re)loaded from its shadow words below,
        # so nothing latched is left to apply.
        self._stale_banks.clear()
        # The energy rows' carry stays with the data path; each
        # correlator's own rows keep (legacy) or restart (banked) theirs.
        energy_carry = (self._banked_carry if self._bank_count
                        else self._legacy_carry)[-2:].copy()
        if count == 0:
            # Back to the legacy correlator; the shadows
            # keep their contents for a later re-enable.
            self._bank_count = 0
            self._legacy_carry[-2:] = energy_carry
            return
        banks = [self._unpacked_bank(k) for k in range(count)]
        self._banked.load_banks(banks, self._bank_thresholds[:count],
                                labels=self.bank_labels[:count])
        self._banked_carry = np.zeros(count + 2, dtype=bool)
        self._banked_carry[-2:] = energy_carry
        self._bank_count = count

    def _set_bank_select(self, value: int) -> None:
        index = int(value)
        if not 0 <= index < regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank select {index} outside 0..{regmap.MAX_BANKS - 1}"
            )
        self._bank_select = index

    def _bank_coeff_watch(self, words, offset):
        """Latch a windowed coefficient word into the selected bank.

        A write targeting a *live* bank marks it stale: the new
        template takes effect on the next processed chunk (and is what
        ``banked`` reports at once), with the sign history and trigger
        carries intact.
        """
        def handler(value: int) -> None:
            index = self._bank_select
            words[index][offset] = int(value)
            if index < self._bank_count:
                self._stale_banks.add(index)
        return handler

    def _bank_threshold_watch(self, index):
        def handler(value: int) -> None:
            self._bank_thresholds[index] = int(value)
            if index < self._bank_count:
                self._banked.set_threshold(index, int(value))
        return handler

    def set_bank_label(self, index: int, label: str) -> None:
        """Name the protocol a bank detects (host-side metadata)."""
        if not 0 <= index < regmap.MAX_BANKS:
            raise ConfigurationError(
                f"bank index {index} outside 0..{regmap.MAX_BANKS - 1}"
            )
        self.bank_labels[index] = str(label)
        if index < self._bank_count:
            self._banked.set_label(index, label)

    def _set_xcorr_threshold(self, value: int) -> None:
        self._correlator.threshold = value

    def _set_energy_high(self, value: int) -> None:
        self.energy.threshold_high_db = regmap.decode_energy_threshold_db(value)

    def _set_energy_low(self, value: int) -> None:
        self.energy.threshold_low_db = regmap.decode_energy_threshold_db(value)

    def _set_trigger_config(self, value: int) -> None:
        stages: list[TriggerSource] = []
        for stage in range(TriggerStateMachine.MAX_STAGES):
            if value & (1 << (regmap.STAGE_ENABLE_SHIFT + stage)):
                raw = (value >> (stage * regmap.STAGE_SOURCE_BITS)) \
                    & regmap.STAGE_SOURCE_MASK
                try:
                    stages.append(TriggerSource(raw))
                except ValueError as exc:
                    raise RegisterError(
                        f"stage {stage} selects unknown source "
                        f"encoding {raw}"
                    ) from exc
        mode = TriggerMode.ANY if value & regmap.TRIGGER_MODE_BIT \
            else TriggerMode.SEQUENCE
        window = self.fsm.window_samples
        if len(stages) > 1 and window == 0 and mode is TriggerMode.SEQUENCE:
            window = 1
        self.fsm = TriggerStateMachine(stages or [TriggerSource.ENERGY_HIGH],
                                       window_samples=window, mode=mode)
        self.fsm.tracer = self._tracer
        self.fsm.watchdog = self.watchdog

    def _set_trigger_window(self, value: int) -> None:
        self.fsm.window_samples = value

    def _set_jam_delay(self, value: int) -> None:
        self.tx.delay_samples = value

    def _set_jam_uptime(self, value: int) -> None:
        self.tx.uptime_samples = value

    def _set_jam_waveform(self, value: int) -> None:
        select = value & regmap.WAVEFORM_SELECT_MASK
        try:
            self.tx.waveform = JamWaveform(select)
        except ValueError as exc:
            raise RegisterError(
                f"waveform select {select} is not a defined preset"
            ) from exc
        self.tx.wgn_seed = value >> regmap.WGN_SEED_SHIFT

    def _set_control_flags(self, value: int) -> None:
        self._jammer_enabled = bool(value & regmap.FLAG_JAMMER_ENABLE)
        continuous = bool(value & regmap.FLAG_CONTINUOUS)
        if continuous and self._continuous_since is None:
            self._continuous_since = self._clock
        if not continuous and self._continuous_since is not None:
            # The always-on burst ends; its noise stream goes with it.
            self.tx.release_interval(self._continuous_burst(self._clock))
            self._continuous_since = None
        self._antenna_bits = (value & regmap.ANTENNA_MASK) >> regmap.ANTENNA_SHIFT

    def _set_replay_length(self, value: int) -> None:
        self.tx.replay_length = value

    # ------------------------------------------------------------------
    # Status (the "host feedback / synchro flags" path in Fig. 1)

    @property
    def tracer(self) -> Tracer:
        """The attached trace sink (the null tracer by default)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        # The FSM is rebuilt on trigger-config writes, so the tracer
        # rides along through this setter and `_set_trigger_config`.
        self._tracer = tracer
        self.fsm.tracer = tracer

    @property
    def clock(self) -> int:
        """Absolute index of the next sample to be processed."""
        return self._clock

    @property
    def correlator(self) -> CrossCorrelator:
        """The one-bank correlator the paper's legacy coefficient and
        threshold registers program, latched words applied."""
        self._apply_latched_words()
        return self._correlator

    @property
    def banked(self) -> CrossCorrelator:
        """The K-bank correlator the bank registers program, latched
        words applied.

        Dormant until ``REG_BANK_COUNT`` selects K >= 1, at which point
        it replaces ``correlator`` on the data path.  Each keeps its
        own sign history and carries across a mode switch.
        """
        self._apply_latched_words()
        return self._banked

    @property
    def bank_count(self) -> int:
        """Active banked-correlator banks (0 = legacy correlator)."""
        return self._bank_count

    def attach_metrics(self, registry) -> None:
        """Expose per-protocol detection counters on a registry.

        Counters are created lazily as ``detect.which_protocol.<label>``
        the first time each protocol fires.  Pass ``None`` to detach.
        """
        self._protocol_registry = registry
        self._protocol_counters = {}

    def _protocol_counter(self, label: str):
        counter = self._protocol_counters.get(label)
        if counter is None:
            counter = self._protocol_registry.counter(
                f"detect.which_protocol.{label}")
            self._protocol_counters[label] = counter
        return counter

    @property
    def jammer_enabled(self) -> bool:
        """Whether jam bursts are transmitted at all."""
        return self._jammer_enabled

    @property
    def antenna_bits(self) -> int:
        """Antenna-control field from the control register."""
        return self._antenna_bits

    @property
    def continuous(self) -> bool:
        """Whether the continuous-jamming flag is set."""
        return self._continuous_since is not None

    @property
    def _tx_allowed(self) -> bool:
        """Jamming enabled and the watchdog not holding safe state."""
        if not self._jammer_enabled:
            return False
        return self.watchdog is None or not self.watchdog.safe_state

    def reset(self) -> None:
        """Hardware reset: clears all block state but keeps registers."""
        self._correlator.reset()
        self._banked.reset()
        self.energy.reset()
        self.fsm.reset()
        self.tx.reset()
        self._clock = 0
        self._legacy_carry[:] = False
        self._banked_carry[:] = False
        self._active_intervals.clear()
        self._continuous_since = None if self._continuous_since is None else 0
        self.detection_counts = {source: 0 for source in TriggerSource}
        self.jam_count = 0
        if self.watchdog is not None:
            self.watchdog.reset()

    # ------------------------------------------------------------------
    # Data path

    def process(self, rx_chunk: np.ndarray, *, quantized: bool = False,
                tx_out: np.ndarray | None = None) -> CoreOutput:
        """Run one received chunk through detection and jamming control.

        ``rx_chunk`` is complex baseband at 25 MSPS; it is quantized to
        the 16-bit data path on entry (the ADC/DDC already delivers
        integers in the real system).  Callers that already hold
        IQ16-quantized complex128 samples — the DDC output — pass
        ``quantized=True`` to skip the redundant re-quantize copy.
        Returns the transmit waveform aligned to the same sample span
        plus all events.

        ``tx_out``, a zero-filled complex128 buffer of the chunk's
        length, is where the transmit waveform is written; it comes
        back as ``CoreOutput.tx``.  Without it the core allocates one.

        The trigger and edge planes are the views of the plan for the
        chunk's length and bank set, built on its first chunk.  With a
        watchdog, a stale FSM arm is reset at the sample its re-arm
        timeout elapses (the FSM asks before each event it takes while
        armed; the core asks at the chunk's last sample).
        """
        if quantized:
            rx_chunk = np.asarray(rx_chunk)
        else:
            rx_chunk = np.asarray(rx_chunk, dtype=np.complex128)
        if rx_chunk.ndim != 1:
            raise StreamError("CustomDspCore expects a 1-D complex chunk")
        chunk_start = self._clock
        n = rx_chunk.size
        if tx_out is None:
            tx_out = np.zeros(n, dtype=np.complex128)
        elif tx_out.shape != (n,) or tx_out.dtype != np.complex128:
            raise StreamError(
                f"tx_out must be a complex128 buffer of {n} samples")
        if n == 0:
            return CoreOutput(tx=tx_out)
        samples = rx_chunk if quantized else quantize_iq16(rx_chunk)

        # REG_BANK_COUNT picks the register file whose correlator runs.
        # Its K trigger rows and the energy differentiator's two fill
        # one plane, whose edges are taken once against that
        # correlator's carry.
        self._apply_latched_words()
        if self._bank_count:
            correlator, protocols = self._banked, self._banked.labels
            carry = self._banked_carry
        else:
            correlator, protocols = self._correlator, _LEGACY_PROTOCOLS
            carry = self._legacy_carry
        plan = self._plans.get((n, protocols))
        correlator.detect(samples, plan.correlator_rows)
        self.energy.detect(samples, plan.energy_rows)
        edge_mask(plan.triggers, carry, out=plan.edges)
        carry[...] = plan.last

        detections = self._events(chunk_start, plan)
        jam_times: list[int] = []
        if detections:
            jam_times = self.fsm.process_events(
                [(event.time, event.source) for event in detections])
        # The watchdog's re-arm timeout applies at the sample it
        # elapses: the FSM asks before each event it takes while
        # armed, and here at the chunk's last sample.
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.check_rearm(self.fsm, chunk_start + n - 1)

        jams: list[JamEvent] = []
        if jam_times and self._tx_allowed and not self.continuous:
            # Continuous mode ignores triggers: its one burst is always
            # on.  The duty guard judges each trigger the pipeline is
            # free for before the controller commits it.  Replay
            # snapshots take the chunk up to their trigger; the capture
            # sees the whole chunk once, after scheduling.
            admit = (watchdog.admit_interval
                     if watchdog is not None else None)
            jams = self.tx.schedule(jam_times, samples, chunk_start, admit)
        self.tx.observe_rx(samples)
        self.jam_count += len(jams)
        self._active_intervals.extend(jams)

        self._synthesize_tx(chunk_start, tx_out)
        if self._tracer.enabled:
            for jam in jams:
                self._tracer.span(
                    "jam", CAT_TX, jam.start, jam.end,
                    trigger_sample=jam.trigger_time,
                    waveform=jam.waveform.name,
                )
        self._clock += n
        self._retire_intervals()
        return CoreOutput(tx=tx_out, detections=detections, jams=jams)

    def skip(self, n: int) -> None:
        """Advance the sample clock over ``n`` samples that were lost.

        The recovery path uses this when a chunk cannot be processed:
        the absolute timeline stays aligned (later events keep correct
        timestamps) while the lost span produces no detections and no
        transmit samples.  Edge trackers are cleared — the trigger
        state on the far side of a gap is unknown, and re-detecting an
        edge is safer than missing one.
        """
        if n < 0:
            raise StreamError("cannot skip a negative number of samples")
        self._clock += n
        self._legacy_carry[:] = False
        self._banked_carry[:] = False
        self._retire_intervals()

    def _plan(self, key: tuple[int, tuple]) -> _ChunkPlan:
        n, protocols = key
        return _ChunkPlan(self._planes, n, protocols)

    def _events(self, chunk_start: int,
                plan: _ChunkPlan) -> list[DetectionEvent]:
        """The chunk's detection events from its ``(K + 2, n)`` edge mask.

        Rows are banks ``0..K-1`` (the plan's labels name them; ``None``
        for the legacy correlator), then energy high, then energy low.
        Sorting the hits by (time, row) therefore orders events by
        time, then source, then bank, so coincident multi-protocol hits
        come out in bank order.
        """
        (hits,) = plan.flat_edges.nonzero()
        if not hits.size:
            # The common chunk: no edges, no objects built at all.
            return []
        n = plan.n
        sources, labels = plan.sources, plan.labels
        counts = self.detection_counts
        events = []
        order = [(flat % n, flat // n) for flat in hits.tolist()]
        if len(order) > 1:
            order.sort()
        for time, row in order:
            source = sources[row]
            counts[source] += 1
            events.append(DetectionEvent(time=chunk_start + time,
                                         source=source,
                                         protocol=labels[row]))
        if self._protocol_registry is not None:
            for event in events:
                if event.protocol is not None:
                    self._protocol_counter(event.protocol).inc()
        if self._tracer.enabled:
            for event in events:
                if event.protocol is None:
                    self._tracer.instant(
                        f"detect.{event.source.name.lower()}",
                        CAT_DETECTOR, event.time,
                    )
                else:
                    self._tracer.instant(
                        f"detect.{event.source.name.lower()}",
                        CAT_DETECTOR, event.time,
                        which_protocol=event.protocol,
                    )
        return events

    def _continuous_burst(self, end: int) -> JamEvent:
        """The always-on WGN burst, from when the flag was set to ``end``."""
        since = self._continuous_since
        return JamEvent(trigger_time=since, start=since, end=end,
                        waveform=JamWaveform.WGN)

    def _synthesize_tx(self, chunk_start: int, tx: np.ndarray) -> None:
        """Write the chunk's jamming samples into ``tx`` (zero on entry).

        Bursts never overlap (the controller ignores triggers while
        one is pending), so adding each into the zeroed buffer places
        it; WGN holds no -0.0, so the continuous burst's add is the
        plain write it always was.
        """
        if self.watchdog is not None and self.watchdog.safe_state:
            return  # safe state: nothing leaves the DUC
        n = tx.size
        if self._continuous_since is not None and self._tx_allowed:
            allowed = n
            if self.watchdog is not None:
                allowed = self.watchdog.continuous_allowance(chunk_start, n)
            if allowed:
                burst = self._continuous_burst(chunk_start + allowed)
                self.tx.synthesize(burst, chunk_start, n, out=tx)
            return
        for interval in self._active_intervals:
            self.tx.synthesize(interval, chunk_start, n, out=tx)

    def _retire_intervals(self) -> None:
        """Release the bursts that ended by the clock.

        The active list is rebuilt only when one of them ended.
        """
        clock = self._clock
        for interval in self._active_intervals:
            if interval.end <= clock:
                break
        else:
            return
        still_active: list[JamEvent] = []
        for interval in self._active_intervals:
            if interval.end <= clock:
                self.tx.release_interval(interval)
            else:
                still_active.append(interval)
        self._active_intervals = still_active


class _ChunkPlan:
    """The views one chunk length and bank set need, into the core's
    scratch: the ``(K + 2, n)`` trigger plane with its correlator and
    energy rows and its last column, the edge plane and its flat view,
    and the source and label of each row."""

    __slots__ = ("n", "triggers", "correlator_rows", "energy_rows", "last",
                 "edges", "flat_edges", "sources", "labels")

    def __init__(self, planes: ScratchBuffer, n: int,
                 protocols: tuple) -> None:
        k = len(protocols)
        both = planes.view(2 * (k + 2) * n).reshape(2, k + 2, n)
        self.n = n
        self.triggers = both[0]
        self.correlator_rows = both[0, :k]
        self.energy_rows = both[0, k:]
        self.last = both[0, :, -1]
        self.edges = both[1]
        self.flat_edges = both[1].reshape(-1)
        self.sources = (_XCORR,) * k + (_ENERGY_HIGH, _ENERGY_LOW)
        self.labels = tuple(protocols) + (None, None)
