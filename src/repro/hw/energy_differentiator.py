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
T_en_det).
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ConfigurationError, StreamError
from repro.hw.trigger import rising_edges
from repro.kernels import moving_sums
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
        if window < 1:
            raise ConfigurationError("window must be >= 1")
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
        # Reusable [tail | chunk] assembly buffers: padding and the
        # delay line live in scratch storage instead of fresh arrays.
        self._pad_scratch = ScratchBuffer(np.float64)
        self._delay_scratch = ScratchBuffer(np.float64)
        self._metric_chunks = None
        self._metric_samples = None

    def attach_metrics(self, registry) -> None:
        """Fold per-chunk throughput counters into a metrics registry.

        Exposes ``kernels.energy.chunks`` / ``kernels.energy.samples``.
        Pass ``None`` to detach.
        """
        if registry is None:
            self._metric_chunks = None
            self._metric_samples = None
            return
        self._metric_chunks = registry.counter("kernels.energy.chunks")
        self._metric_samples = registry.counter("kernels.energy.samples")

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

    def _moving_sums(self, samples: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """Advance the moving sum over a non-empty chunk.

        The energies are written straight into the ``[tail | chunk]``
        scratch (``np.abs`` then ``np.square``, the ops of
        ``abs(x) ** 2``) and the sums into ``out`` when given.
        """
        n = samples.size
        padded = self._pad_scratch.view(self._window + n)
        padded[:self._window] = self._energy_tail
        energy = padded[self._window:]
        np.abs(samples, out=energy)
        np.square(energy, out=energy)
        sums = moving_sums(padded, self._window, out=out)
        # New tail = last `window` entries of [tail | energy]; the
        # scratch is distinct storage, so this holds for any chunk size.
        self._energy_tail[:] = padded[n:]
        if self._metric_chunks is not None:
            self._metric_chunks.inc()
            self._metric_samples.inc(n)
        return sums

    def energy_sums(self, samples: np.ndarray) -> np.ndarray:
        """The moving energy sum per incoming sample (consumes input)."""
        samples = self._checked(samples)
        if samples.size == 0:
            return np.zeros(0, dtype=np.float64)
        return self._moving_sums(samples)

    def process(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (trigger_high, trigger_low) arrays per incoming sample."""
        samples = self._checked(samples)
        n = samples.size
        if n == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        # The sums land in the delay line right behind its carried
        # tail, so [sum_tail | sums] is assembled without a copy.
        delay_line = self._delay_scratch.view(self._delay + n)
        delay_line[:self._delay] = self._sum_tail
        sums = self._moving_sums(samples, out=delay_line[self._delay:])
        delayed = delay_line[:n]
        trigger_high = sums > delayed * self._threshold_high
        trigger_low = sums * self._threshold_low < delayed
        self._sum_tail[:] = delay_line[n:]
        return trigger_high, trigger_low

    def detect(self, samples: np.ndarray, last_high: bool = False,
               last_low: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused triggers plus rising-edge indices for both directions.

        ``last_high``/``last_low`` carry the final trigger values of
        the previous chunk so edges are not double-counted across
        chunk boundaries.  Returns ``(trigger_high, trigger_low,
        edges_high, edges_low)``.
        """
        trigger_high, trigger_low = self.process(samples)
        return (trigger_high, trigger_low,
                rising_edges(trigger_high, last_high),
                rising_edges(trigger_low, last_low))

