"""The energy differentiator block (paper Fig. 4).

The block computes the instantaneous energy of each I/Q pair, keeps a
running sum over the most recent ``N`` samples (N = 32 in the paper's
implementation), and compares the current sum against its own value
``D`` samples ago (the Z^-64 delay in Fig. 4) scaled by user-defined
thresholds:

* **trigger high**: ``y[n] > y[n - D] * T_high``  — energy rose by at
  least ``T_high`` (expressed in dB, 3..30 dB programmable);
* **trigger low**:  ``y[n] * T_low < y[n - D]``   — energy fell by at
  least ``T_low``.

The moving sum needs at most ``N`` samples to charge, so an energy-high
detection takes at most 32 samples = 128 clocks = 1.28 us (the paper's
T_en_det).  On IQ16 input the energies and sums are exact, as in the
paper's fixed-point block, while one cumulative sum over the
``window``-sample tail and ``n`` chunk samples has
``window + n <= 2**22`` entries (see :mod:`repro.kernels.energy`).  A
longer chunk runs in pieces that stay within that bound, so chunked
sums equal single-shot sums for every chunking.

:meth:`EnergyDifferentiator.detect` writes the two trigger rows of
the DSP core's stacked trigger plane; rising edges and their carries
belong to the core.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ConfigurationError, StreamError
from repro.kernels import EXACT_SUM_LENGTH, energies, moving_sums
from repro.runtime.buffers import ScratchBuffer

#: Moving-sum window length in samples (paper's implementation).
DEFAULT_WINDOW = 32

#: Delay between the compared sums, in samples (the Z^-64 in Fig. 4).
DEFAULT_DELAY = 64

#: Pipeline latency from sample arrival to trigger assertion (clocks).
PIPELINE_LATENCY_CLOCKS = 1

#: Programmable threshold range in dB (paper §2.3).
THRESHOLD_MIN_DB = 3.0
THRESHOLD_MAX_DB = 30.0


class EnergyDifferentiator:
    """Streaming energy rise/fall detector with persistent state."""

    def __init__(self, threshold_high_db: float = 10.0,
                 threshold_low_db: float = 10.0,
                 window: int = DEFAULT_WINDOW,
                 delay: int = DEFAULT_DELAY) -> None:
        if not 1 <= window < EXACT_SUM_LENGTH:
            raise ConfigurationError(
                f"window must be in [1, {EXACT_SUM_LENGTH})")
        if delay < 1:
            raise ConfigurationError("delay must be >= 1")
        self._window = window
        self._delay = delay
        self.threshold_high_db = threshold_high_db
        self.threshold_low_db = threshold_low_db
        # Energy of the last `window` samples (for the moving sum) and
        # the last `delay` sums (for the comparison delay line).
        self._energy_tail = np.zeros(window, dtype=np.float64)
        self._sum_tail = np.zeros(delay, dtype=np.float64)
        # One reusable buffer holds a call's [tail | sums] delay line
        # and the work space behind it: the [tail | energies] plane,
        # cumulated in place, then the Q*Q term of the energies.
        self._scratch = ScratchBuffer(np.float64)

    @staticmethod
    def _check_threshold(value_db: float) -> float:  # repro-lint: disable=RJ003 (host-side dB validation, not datapath)
        if not THRESHOLD_MIN_DB <= value_db <= THRESHOLD_MAX_DB:
            raise ConfigurationError(
                f"energy threshold {value_db} dB outside the programmable "
                f"{THRESHOLD_MIN_DB}-{THRESHOLD_MAX_DB} dB range"
            )
        return float(value_db)

    @property
    def threshold_high_db(self) -> float:
        """Energy-rise threshold in dB."""
        return self._threshold_high_db

    @threshold_high_db.setter
    def threshold_high_db(self, value_db: float) -> None:
        self._threshold_high_db = self._check_threshold(value_db)
        self._threshold_high = units.db_to_linear(self._threshold_high_db)

    @property
    def threshold_low_db(self) -> float:
        """Energy-fall threshold in dB."""
        return self._threshold_low_db

    @threshold_low_db.setter
    def threshold_low_db(self, value_db: float) -> None:
        self._threshold_low_db = self._check_threshold(value_db)
        self._threshold_low = units.db_to_linear(self._threshold_low_db)

    @property
    def window(self) -> int:
        """Moving-sum length in samples."""
        return self._window

    @property
    def delay(self) -> int:
        """Comparison delay in samples."""
        return self._delay

    def reset(self) -> None:
        """Clear the energy and sum delay lines."""
        self._energy_tail[:] = 0.0
        self._sum_tail[:] = 0.0

    @staticmethod
    def _checked(samples: np.ndarray) -> np.ndarray:
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise StreamError("EnergyDifferentiator expects a 1-D chunk")
        return samples

    def _work(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``[sum_tail | sums]`` delay line and the sums' work space.

        The work space holds one piece's ``[tail | energies]`` plane
        and its ``Q*Q`` term, where a piece is at most the
        ``EXACT_SUM_LENGTH - window`` samples one exact cumulative sum
        holds, and then the chunk's scaled compare operand.
        """
        delay = self._delay
        piece = min(n, EXACT_SUM_LENGTH - self._window)
        scratch = self._scratch.view(2 * n + delay + self._window + piece)
        return scratch[:delay + n], scratch[delay + n:]

    def _moving_sums(self, samples: np.ndarray, out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
        """Advance the moving sum over a non-empty chunk into ``out``.

        A chunk longer than one exact cumulative sum holds (``window +
        n`` over :data:`EXACT_SUM_LENGTH`) runs in pieces that each
        stay within it.  Each piece's energies are written straight
        into the ``[tail | piece]`` plane in ``work`` and summed in
        place by the kernels the batch form shares.
        """
        window = self._window
        piece = EXACT_SUM_LENGTH - window
        for begin in range(0, samples.size, piece):
            chunk = samples[begin:begin + piece]
            n = chunk.size
            padded = work[:window + n]
            padded[:window] = self._energy_tail
            energies(chunk, padded[window:], work[window + n:window + 2 * n])
            # New tail = last `window` entries of [tail | energy], taken
            # before the cumulative sum overwrites the plane.
            self._energy_tail[:] = padded[n:]
            moving_sums(padded, window, out[begin:begin + n], csum=padded)
        return out

    def energy_sums(self, samples: np.ndarray) -> np.ndarray:
        """The moving energy sum per incoming sample (consumes input)."""
        samples = self._checked(samples)
        n = samples.size
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        return self._moving_sums(samples, np.empty(n), self._work(n)[1])

    def detect(self, samples: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Rise and fall triggers per incoming sample, ``(2, n)`` bool.

        Row 0 is trigger high, ``y[n] > y[n - D] * T_high``; row 1 is
        trigger low, ``y[n] * T_low < y[n - D]``.  The rows are written
        into ``out`` when given — the DSP core passes the energy rows
        of its stacked trigger plane — and returned.
        """
        samples = self._checked(samples)
        n = samples.size
        if out is None:
            out = np.empty((2, n), dtype=bool)
        if n == 0:
            return out
        # The sums land in the delay line right behind its carried
        # tail, so [sum_tail | sums] is assembled without a copy.
        delay = self._delay
        delay_line, work = self._work(n)
        delay_line[:delay] = self._sum_tail
        sums = self._moving_sums(samples, delay_line[delay:], work)
        delayed = delay_line[:n]
        scaled = work[:n]  # the spent plane holds each scaled operand
        np.multiply(delayed, self._threshold_high, out=scaled)
        np.greater(sums, scaled, out=out[0])
        np.multiply(sums, self._threshold_low, out=scaled)
        np.less(scaled, delayed, out=out[1])
        self._sum_tail[:] = delay_line[n:]
        return out
