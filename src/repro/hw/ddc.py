"""Digital down-conversion chain model.

In the real N210 the ADC runs at 100 MSPS and the DDC decimates by 4 to
deliver 25 MSPS complex baseband to the custom core.  The channel
simulation already produces baseband at the core's rate, so the DDC
model captures what remains observable at that interface: RX gain,
16-bit quantization with saturation, an anti-alias low-pass, and the
chain's pipeline latency in clock cycles.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.dsp.filters import FirFilter, design_lowpass
from repro.dsp.fixed_point import quantize_iq16
from repro.errors import StreamError
from repro.hw.impairments import FrontEndImpairments

#: Pipeline depth of the DDC (CIC + halfband filters), in clock cycles.
#: The value is part of the fixed RX latency but does not affect the
#: *relative* detect-to-jam timing the paper reports, since both RX and
#: trigger share it.
PIPELINE_LATENCY_CLOCKS = 32


class DigitalDownConverter:
    """RX front-half of the data path feeding the custom DSP core.

    An optional :class:`repro.hw.impairments.FrontEndImpairments`
    profile models the analog dirt (DC offset, IQ imbalance, CFO) in
    front of the quantizer.
    """

    def __init__(self, rx_gain_db: float = 0.0, use_filter: bool = False,
                 impairments: "FrontEndImpairments | None" = None) -> None:
        self.rx_gain_db = rx_gain_db
        self._filter: FirFilter | None = None
        self.impairments = impairments
        self._sample_clock = 0
        if use_filter:
            taps = design_lowpass(
                cutoff=0.45 * units.BASEBAND_RATE,
                sample_rate=units.BASEBAND_RATE,
                num_taps=31,
            )
            self._filter = FirFilter(taps)

    @property
    def rx_gain_db(self) -> float:
        """Receive gain applied before quantization, in dB."""
        return self._rx_gain_db

    @rx_gain_db.setter
    def rx_gain_db(self, value: float) -> None:
        self._rx_gain_db = float(value)
        self._rx_gain = units.db_to_amplitude(self._rx_gain_db) \
            if value != float("-inf") else 0.0

    def reset(self) -> None:
        """Clear filter state and the CFO phase clock."""
        if self._filter is not None:
            self._filter.reset()
        self._sample_clock = 0

    def skip(self, n: int) -> None:
        """Advance the CFO phase clock over ``n`` lost samples.

        After a dropped chunk the impairments resume at the phase an
        uninterrupted stream would have reached.
        """
        if n < 0:
            raise StreamError("cannot skip a negative number of samples")
        self._sample_clock += n

    def process(self, samples: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Apply impairments, gain, filtering, 16-bit quantization.

        At unity gain the multiply is skipped: on finite samples it
        changes at most the sign of a zero component, which the
        quantizer folds to +0.0 anyway.  The CFO clock advances only
        once the chunk is quantized, so a chunk the quantizer rejects
        (a NaN sample) leaves it for :meth:`skip`.

        ``out``, a complex128 buffer of the chunk's length, receives
        the IQ16 baseband when given (see
        :func:`repro.dsp.fixed_point.quantize_iq16`) and is returned.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise StreamError("DDC expects a 1-D complex chunk")
        if self.impairments is not None:
            samples = self.impairments.apply(samples, self._sample_clock)
        if self._rx_gain != 1.0:
            samples = samples * self._rx_gain
        if self._filter is not None:
            samples = self._filter.process(samples)
        baseband = quantize_iq16(samples, out=out)
        self._sample_clock += baseband.size
        return baseband
