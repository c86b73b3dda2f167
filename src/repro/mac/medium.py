"""The shared wireless medium of the MAC-plane simulation.

Tracks every emission (802.11 frames and jamming bursts), computes
per-node received powers through the 5-port network's path losses,
answers carrier-sense queries, and decides frame reception outcomes by
combining the SINR->PER link model with the jam-overlap anatomy of
each frame.

Calibrated receiver-robustness constants
----------------------------------------
Two constants abstract consumer-receiver behaviour that the
semi-analytic PER model cannot derive; both are calibrated against the
paper's measured SIR cliffs and documented in EXPERIMENTS.md:

* :data:`SYNC_LOSS_SIR_DB` — a burst covering at least half the long
  training field destroys synchronization when the signal is less
  than this many dB above the jammer.  Anchors the 0.01 ms-uptime
  cliff (paper: ~2.8 dB).
* :data:`AGC_CAPTURE_SIR_DB` — a burst arriving during the SIGNAL or
  DATA portion disrupts the receiver's AGC/equalizer outright when
  the signal-to-jammer ratio is below this value; above it the
  SINR->PER model decides.  Anchors the 0.1 ms-uptime cliff
  (paper: ~15.9 dB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro import units
from repro.errors import SimulationError
from repro.mac.frames import MacFrame
from repro.phy.wifi.params import WifiRate, SERVICE_BITS, TAIL_BITS
from repro.phy.wifi.per_model import segment_success

#: CCA busy threshold for decodable 802.11 preambles (dBm).
CCA_PREAMBLE_DBM = -82.0

#: CCA energy-detect threshold for non-decodable signals (dBm).
CCA_ED_DBM = -62.0

#: Jam-to-signal sync destruction margin (dB).  See module docstring.
SYNC_LOSS_SIR_DB = 3.0

#: AGC/equalizer capture margin for mid-frame bursts (dB).
AGC_CAPTURE_SIR_DB = 15.0

#: Preamble anatomy (seconds from frame start).
_STF_END_S = 8e-6
_LTF_END_S = 16e-6
_SIGNAL_END_S = 20e-6

#: Fraction of the LTF a burst must cover to threaten synchronization.
_LTF_KILL_FRACTION = 0.5


class EmissionKind(enum.Enum):
    """What kind of energy an emission is."""

    FRAME = "frame"
    JAM = "jam"


@dataclass
class Emission:
    """One transmission on the medium.

    Attributes:
        kind: Frame or jamming burst.
        src: Transmitting node name.
        start: Start time (seconds).
        end: End time (seconds).
        tx_power_dbm: Transmit power.
        frame: The MAC frame (FRAME emissions only).
    """

    kind: EmissionKind
    src: str
    start: float
    end: float
    tx_power_dbm: float
    frame: MacFrame | None = None

    def overlaps(self, start: float, end: float) -> bool:
        """Whether this emission overlaps the [start, end) span."""
        return self.start < end and start < self.end

    def overlap_duration(self, start: float, end: float) -> float:
        """Seconds of overlap with [start, end)."""
        return max(0.0, min(self.end, end) - max(self.start, start))


class Medium:
    """The shared channel, parameterized by a path-loss function."""

    def __init__(self, path_loss_db: Callable[[str, str], float | None],
                 noise_floor_dbm: float = -95.0) -> None:
        self._path_loss_db = path_loss_db
        self.noise_floor_dbm = float(noise_floor_dbm)
        self._emissions: list[Emission] = []
        self._frame_listeners: list[Callable[[Emission], None]] = []
        self._emit_count = 0

    # ------------------------------------------------------------------
    # Emission bookkeeping

    def add_frame_listener(self, callback: Callable[[Emission], None]) -> None:
        """Subscribe to frame-start notifications (the jammer's ears)."""
        self._frame_listeners.append(callback)

    def emit_frame(self, src: str, frame: MacFrame, start: float,
                   tx_power_dbm: float) -> Emission:
        """Register a frame transmission starting at ``start``."""
        emission = Emission(
            kind=EmissionKind.FRAME, src=src, start=start,
            end=start + frame.duration_s, tx_power_dbm=tx_power_dbm,
            frame=frame,
        )
        self._register(emission)
        for listener in self._frame_listeners:
            listener(emission)
        return emission

    def _register(self, emission: Emission) -> None:
        self._emissions.append(emission)
        self._emit_count += 1
        # Periodically forget long-finished emissions; nothing in the
        # simulation looks back more than a few frame times.
        if self._emit_count % 256 == 0:
            self.prune(emission.start - 0.05)

    def emit_jam(self, src: str, start: float, duration: float,
                 tx_power_dbm: float) -> Emission:
        """Register a jamming burst."""
        if duration <= 0:
            raise SimulationError("jam duration must be positive")
        emission = Emission(
            kind=EmissionKind.JAM, src=src, start=start,
            end=start + duration, tx_power_dbm=tx_power_dbm,
        )
        self._register(emission)
        return emission

    def prune(self, before: float) -> None:
        """Forget emissions that ended before ``before``."""
        self._emissions = [e for e in self._emissions if e.end >= before]

    # ------------------------------------------------------------------
    # Power bookkeeping

    def rx_power_dbm(self, emission: Emission, node: str) -> float | None:
        """Received power of an emission at ``node`` (None if isolated)."""
        if emission.src == node:
            return None
        loss = self._path_loss_db(emission.src, node)
        if loss is None:
            return None
        return emission.tx_power_dbm + loss

    def _cca_threshold(self, emission: Emission) -> float:
        if emission.kind is EmissionKind.FRAME:
            return CCA_PREAMBLE_DBM
        return CCA_ED_DBM

    def _audible(self, emission: Emission, node: str) -> bool:
        power = self.rx_power_dbm(emission, node)
        return power is not None and power > self._cca_threshold(emission)

    # ------------------------------------------------------------------
    # Carrier sense

    def busy_intervals(self, node: str, t_from: float) -> list[tuple[float, float]]:
        """Merged intervals (from ``t_from``) during which CCA is busy."""
        spans = sorted(
            (max(e.start, t_from), e.end)
            for e in self._emissions
            if e.end > t_from and self._audible(e, node)
        )
        merged: list[tuple[float, float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def is_busy(self, node: str, t: float) -> bool:
        """Whether CCA reports busy at instant ``t``."""
        return any(e.start <= t < e.end and self._audible(e, node)
                   for e in self._emissions)

    def backoff_finish_time(self, node: str, t_from: float, slots: int,
                            difs_s: float, slot_s: float) -> float:
        """When a DIFS + ``slots``-slot backoff completes.

        Walks the currently-known busy intervals: the countdown needs
        the medium idle for a full DIFS, then decrements one slot per
        idle slot, freezing (and re-waiting DIFS) whenever the medium
        goes busy.  Deterministic given the registered emissions; the
        caller re-validates if new emissions appear in the meantime.
        """
        if slots < 0:
            raise SimulationError("slots must be non-negative")
        busy = self.busy_intervals(node, t_from)
        t = t_from
        remaining = slots
        index = 0
        while True:
            # Skip any busy interval containing t.
            while index < len(busy) and busy[index][1] <= t:
                index += 1
            if index < len(busy) and busy[index][0] <= t:
                t = busy[index][1]
                continue
            # Idle until the next busy interval (or forever).
            idle_end = busy[index][0] if index < len(busy) else float("inf")
            need = difs_s + remaining * slot_s
            if t + need <= idle_end:
                return t + need
            # DIFS must fit entirely in the idle gap before any slot counts.
            usable = idle_end - t - difs_s
            if usable > 0:
                consumed = min(remaining, int(usable / slot_s))
                remaining -= consumed
            t = idle_end

    # ------------------------------------------------------------------
    # Reception outcomes

    def _jam_overlaps(self, emission: Emission, receiver: str
                      ) -> list[tuple[Emission, float]]:
        """Interfering emissions overlapping a frame, with rx powers."""
        out: list[tuple[Emission, float]] = []
        for other in self._emissions:
            if other is emission or other.src == receiver:
                continue
            if not other.overlaps(emission.start, emission.end):
                continue
            power = self.rx_power_dbm(other, receiver)
            if power is not None:
                out.append((other, power))
        return out

    def frame_success_probability(self, emission: Emission, receiver: str) -> float:
        """Probability that ``receiver`` decodes the frame emission."""
        if emission.frame is None:
            raise SimulationError("success probability applies to frames only")
        s_dbm = self.rx_power_dbm(emission, receiver)
        if s_dbm is None or s_dbm < CCA_PREAMBLE_DBM:
            return 0.0
        interferers = self._jam_overlaps(emission, receiver)
        frame = emission.frame
        rate = frame.rate
        snr_db = s_dbm - self.noise_floor_dbm
        n_bits = 8 * frame.psdu_bytes + SERVICE_BITS + TAIL_BITS
        if not interferers:
            return (segment_success(snr_db, WifiRate.MBPS_6, 24)
                    * segment_success(snr_db, rate, n_bits))

        # Any overlapping *frame* is a collision: the stronger one may
        # capture, otherwise both are lost.
        for other, power in interferers:
            if other.kind is EmissionKind.FRAME and s_dbm - power < 10.0:
                return 0.0

        jams = [(e, p) for e, p in interferers if e.kind is EmissionKind.JAM]
        if not jams:
            return (segment_success(snr_db, WifiRate.MBPS_6, 24)
                    * segment_success(snr_db, rate, n_bits))
        j_dbm = max(p for _e, p in jams)
        sir_db = s_dbm - j_dbm
        j_watts = sum(units.dbm_to_watts(p) for _e, p in jams)
        noise_watts = units.dbm_to_watts(self.noise_floor_dbm)
        sinr_jam_db = units.linear_to_db(
            units.dbm_to_watts(s_dbm) / (noise_watts + j_watts)
        )

        t0 = emission.start
        ltf_overlap = sum(
            e.overlap_duration(t0 + _STF_END_S, t0 + _LTF_END_S)
            for e, _p in jams
        )
        signal_hit = any(
            e.overlaps(t0 + _LTF_END_S, t0 + _SIGNAL_END_S) for e, _p in jams
        )
        data_overlap = sum(
            e.overlap_duration(t0 + _SIGNAL_END_S, emission.end)
            for e, _p in jams
        )

        # Synchronization destruction (dominates the short-uptime jammer).
        ltf_len = _LTF_END_S - _STF_END_S
        if ltf_overlap >= _LTF_KILL_FRACTION * ltf_len and sir_db < SYNC_LOSS_SIR_DB:
            return 0.0
        # AGC/equalizer capture by a mid-frame burst (dominates the
        # long-uptime jammer).
        if (signal_hit or data_overlap > 0) and sir_db < AGC_CAPTURE_SIR_DB:
            return 0.0

        data_duration = max(emission.end - (t0 + _SIGNAL_END_S), 1e-12)
        jam_fraction = min(data_overlap / data_duration, 1.0)
        jammed_bits = int(round(n_bits * jam_fraction))
        clean_bits = n_bits - jammed_bits
        signal_snr = sinr_jam_db if signal_hit else snr_db
        return (segment_success(signal_snr, WifiRate.MBPS_6, 24)
                * segment_success(snr_db, rate, clean_bits)
                * segment_success(sinr_jam_db, rate, jammed_bits))

    def receive_frame(self, emission: Emission, receiver: str,
                      rng: np.random.Generator) -> bool:
        """Bernoulli reception decision for one frame."""
        return bool(rng.random() < self.frame_success_probability(
            emission, receiver))
