"""USRP N210 + SBX daughterboard device model.

Ties together the RF front end (tuning range and gain limits of the
SBX transceiver board), the DDC/DUC chains, and the custom DSP core.
The paper initializes both TX and RX chains at start-up to avoid
RX/TX switching time; the model reflects that by being full-duplex:
every ``process`` call consumes a received chunk and produces the
transmit chunk for the same span of the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, HardwareError
from repro.hw.ddc import DigitalDownConverter
from repro.hw.dsp_core import CoreOutput, CustomDspCore
from repro.hw.duc import DigitalUpConverter
from repro.hw.registers import UserRegisterBus
from repro.hw.vita_time import VitaTimestamp, VitaTimeSource
from repro.hw.watchdog import Watchdog

if TYPE_CHECKING:  # repro.faults imports repro.hw; avoid the cycle.
    from repro.faults.stream import StreamFaultInjector

#: SBX tuning range (Hz).  The paper quotes 400 MHz - 4 GHz; the board
#: datasheet extends to 4.4 GHz.
SBX_FREQ_MIN_HZ = 400e6
SBX_FREQ_MAX_HZ = 4.4e9

#: SBX instantaneous bandwidth (Hz).
SBX_BANDWIDTH_HZ = 40e6

#: SBX gain range (dB), both directions.
SBX_GAIN_MIN_DB = 0.0
SBX_GAIN_MAX_DB = 31.5


@dataclass
class SbxFrontend:
    """The agile SBX transceiver daughterboard.

    Attributes:
        center_freq_hz: Tuned RF center frequency.
        tx_gain_db: RF transmit gain within the SBX range.
        rx_gain_db: RF receive gain within the SBX range.
    """

    center_freq_hz: float = 2.484e9  # WiFi channel 14, as in the paper
    tx_gain_db: float = 15.0
    rx_gain_db: float = 15.0

    def __post_init__(self) -> None:
        self.tune(self.center_freq_hz)
        self.set_tx_gain(self.tx_gain_db)
        self.set_rx_gain(self.rx_gain_db)

    def tune(self, freq_hz: float) -> None:
        """Retune the front end; out-of-range requests are hardware errors."""
        if not SBX_FREQ_MIN_HZ <= freq_hz <= SBX_FREQ_MAX_HZ:
            raise HardwareError(
                f"SBX cannot tune to {freq_hz / 1e9:.3f} GHz "
                f"(range {SBX_FREQ_MIN_HZ / 1e6:.0f} MHz - "
                f"{SBX_FREQ_MAX_HZ / 1e9:.1f} GHz)"
            )
        self.center_freq_hz = float(freq_hz)

    def set_tx_gain(self, gain_db: float) -> None:
        """Set the RF transmit gain."""
        if not SBX_GAIN_MIN_DB <= gain_db <= SBX_GAIN_MAX_DB:
            raise HardwareError(
                f"SBX TX gain {gain_db} dB outside "
                f"[{SBX_GAIN_MIN_DB}, {SBX_GAIN_MAX_DB}] dB"
            )
        self.tx_gain_db = float(gain_db)

    def set_rx_gain(self, gain_db: float) -> None:
        """Set the RF receive gain."""
        if not SBX_GAIN_MIN_DB <= gain_db <= SBX_GAIN_MAX_DB:
            raise HardwareError(
                f"SBX RX gain {gain_db} dB outside "
                f"[{SBX_GAIN_MIN_DB}, {SBX_GAIN_MAX_DB}] dB"
            )
        self.rx_gain_db = float(gain_db)


class UsrpN210:
    """Full-duplex USRP N210 with the custom jamming core installed."""

    def __init__(self, frontend: SbxFrontend | None = None,
                 bus: UserRegisterBus | None = None,
                 vita_time: VitaTimeSource | None = None,
                 watchdog: Watchdog | None = None,
                 stream_faults: "StreamFaultInjector | None" = None) -> None:
        self.frontend = frontend if frontend is not None else SbxFrontend()
        self.bus = bus if bus is not None else UserRegisterBus()
        self.core = CustomDspCore(bus=self.bus, watchdog=watchdog)
        self.ddc = DigitalDownConverter(rx_gain_db=0.0)
        self.duc = DigitalUpConverter(tx_gain_db=0.0)
        self.vita_time = vita_time if vita_time is not None \
            else VitaTimeSource()
        #: Optional antenna-port fault stage (see :mod:`repro.faults`).
        self.stream_faults = stream_faults
        # Samples of the current chunk the fault stage has already
        # consumed; nonzero only while a later stage may reject it.
        self._faults_consumed = 0

    def timestamp_of(self, sample_index: int) -> "VitaTimestamp":
        """Absolute VITA time of an event's sample index (Fig. 1)."""
        return self.vita_time.timestamp(sample_index)

    def set_tx_amplitude_db(self, gain_db: float) -> None:
        """Set the digital TX scaling (on top of the SBX RF gain).

        The experiments sweep jammer power over a wider range than the
        31.5 dB SBX step allows by combining RF gain and digital
        scaling, exactly as the paper stacks attenuators.
        """
        self.duc.tx_gain_db = gain_db

    def process(self, rx_chunk: np.ndarray,
                tx_out: np.ndarray | None = None) -> CoreOutput:
        """Run one received chunk through RX -> core -> TX.

        ``rx_chunk`` is the complex baseband arriving at the antenna
        port (post channel).  The returned :class:`CoreOutput` carries
        the antenna-port transmit waveform for the same sample span,
        written into ``tx_out`` (a zero-filled complex128 buffer of
        the chunk's length) when one is passed, else into a new array.
        """
        rx_chunk = np.asarray(rx_chunk, dtype=np.complex128)
        self._faults_consumed = 0
        if self.stream_faults is not None:
            rx_chunk = self.stream_faults.process(rx_chunk)
            self._faults_consumed = rx_chunk.size
        # The DDC already quantizes its output to IQ16, so the core is
        # told not to re-quantize (no second pass over the chunk).
        baseband = self.ddc.process(rx_chunk)
        output = self.core.process(baseband, quantized=True, tx_out=tx_out)
        tx = self.duc.process(output.tx)
        if tx_out is not None and tx is not tx_out:
            # Unity gain hands the buffer back; any other gain scaled
            # a copy, which lands in the caller's buffer.
            tx_out[:] = tx
            tx = tx_out
        output.tx = tx
        self._faults_consumed = 0
        return output

    def skip(self, n: int) -> None:
        """Advance the device timeline over ``n`` lost antenna samples.

        Keeps the DSP core's sample clock, the DDC's CFO phase clock
        and the fault injector's schedule aligned when the recovery
        path drops a chunk.  A chunk the DDC rejected has already
        passed the fault stage, which is not advanced over it twice.
        """
        if self.stream_faults is not None:
            self.stream_faults.skip(max(n - self._faults_consumed, 0))
        self._faults_consumed = 0
        self.ddc.skip(n)
        self.core.skip(n)

    def run(self, rx_signal: np.ndarray, chunk_size: int = 1 << 16) -> CoreOutput:
        """Process a complete signal in chunks and merge the outputs.

        Chunked processing is bit-identical to single-shot processing
        (the blocks carry state), so ``chunk_size`` is a throughput
        knob only.
        """
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        rx_signal = np.asarray(rx_signal, dtype=np.complex128)
        # The data path is length-preserving chunk by chunk, so every
        # chunk writes its transmit samples into its span of one
        # run-owned array.
        tx = np.zeros(rx_signal.size, dtype=np.complex128)
        detections = []
        jams = []
        for start in range(0, rx_signal.size, chunk_size):
            stop = start + chunk_size
            out = self.process(rx_signal[start:stop], tx_out=tx[start:stop])
            detections.extend(out.detections)
            jams.extend(out.jams)
        return CoreOutput(tx=tx, detections=detections, jams=jams)
