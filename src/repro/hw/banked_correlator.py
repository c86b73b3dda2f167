"""The multi-standard stacked correlator bank (K protocols, one pass).

The same Drexel lab's FPGA multi-standard packet detector runs several
run-time-swappable preamble correlators concurrently; this facade is
that block grafted onto the paper's sign-bit correlator.  Up to
:data:`repro.hw.register_map.MAX_BANKS` 64-tap coefficient banks are
stacked into one band operand
(:func:`repro.kernels.prepare_stacked`) and evaluated over a *single*
shared interleaved sign plane by one GEMM pass per chunk —
``K`` protocol detections for roughly the cost of the widened GEMM,
with the sign slicing, history stitch, and padded-plane copy amortized
across banks.

Per-bank state is exactly what ``K`` independent
:class:`repro.hw.cross_correlator.CrossCorrelator` instances would
keep: one shared 63-pair sign history (every bank is 64 taps, so the
histories coincide) and a per-bank trigger carry for rising-edge
extraction.  Byte-identity of each bank's trigger/edge stream to its
standalone counterpart is the invariant the parity suites pin.

Banks are hot-swappable: :meth:`BankedCrossCorrelator.load_bank`
replaces one bank's coefficients between chunks (the register bus
write path lands here) and takes effect on the next chunk — the sign
history is received *data*, not coefficient state, so it survives the
swap just as the hardware shift register would.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fixed_point import COEFF3
from repro.errors import ConfigurationError, StreamError
from repro.hw.register_map import CORRELATOR_LENGTH, MAX_BANKS
from repro.kernels import get_backend, prepare_stacked, sign_plane, \
    xcorr_detect_stacked
from repro.runtime.buffers import ScratchBuffer

#: Host-side protocol names when the caller provides none.
DEFAULT_BANK_LABELS = tuple(f"bank{k}" for k in range(MAX_BANKS))


def _check_bank(coeffs_i: np.ndarray,
                coeffs_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
    coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
    for name, bank in (("I", coeffs_i), ("Q", coeffs_q)):
        if bank.ndim != 1 or bank.size != CORRELATOR_LENGTH:
            raise ConfigurationError(
                f"{name} bank must have {CORRELATOR_LENGTH} coefficients"
            )
        if np.any(bank < COEFF3.min_int) or np.any(bank > COEFF3.max_int):
            raise ConfigurationError(
                f"{name} coefficients exceed the 3-bit signed range"
            )
    return coeffs_i.copy(), coeffs_q.copy()


class BankedCrossCorrelator:
    """K stacked 64-tap sign-bit correlators sharing one GEMM pass."""

    def __init__(self, backend: str | None = None) -> None:
        self._backend = get_backend(backend)
        self._banks: list[tuple[np.ndarray, np.ndarray]] = []
        self._thresholds = np.zeros(0, dtype=np.int64)
        self._labels: tuple[str, ...] = ()
        self._stacked = None
        # Every bank is 64 taps, so the shared history is the same 63
        # sign pairs a single correlator carries.
        self._history = np.zeros(2 * (CORRELATOR_LENGTH - 1),
                                 dtype=np.int8)
        self._last = np.zeros(0, dtype=bool)
        self._plane_scratch = ScratchBuffer(np.int8)
        self._gemm_scratch: ScratchBuffer | None = None
        self._metric_chunks = None
        self._metric_samples = None

    # ------------------------------------------------------------------
    # Configuration

    @property
    def backend(self) -> str:
        """Name of the kernel backend this instance dispatches to."""
        return self._backend.name

    @property
    def n_banks(self) -> int:
        """Number of loaded banks (0 = unconfigured)."""
        return len(self._banks)

    @property
    def labels(self) -> tuple[str, ...]:
        """Host-side protocol name per bank."""
        return self._labels

    @property
    def thresholds(self) -> np.ndarray:
        """Per-bank detection thresholds (copy)."""
        return self._thresholds.copy()

    @property
    def prepared_coefficients(self):
        """The stacked kernel operand (frozen), or ``None``."""
        return self._stacked

    def bank_coefficients(self, index: int
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Bank ``index``'s I and Q coefficient banks (copies)."""
        coeffs_i, coeffs_q = self._banks[index]
        return coeffs_i.copy(), coeffs_q.copy()

    def load_banks(self, banks, thresholds, labels=None) -> None:
        """Load a full bank set: ``K`` ``(coeffs_i, coeffs_q)`` pairs.

        Replaces any previous configuration; per-bank trigger carries
        restart cleared (as ``K`` freshly-reset single correlators
        would) while the shared sign history — received data — is
        kept.
        """
        banks = [_check_bank(ci, cq) for ci, cq in banks]
        if not 1 <= len(banks) <= MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 1..{MAX_BANKS}, got {len(banks)}"
            )
        thresholds = np.asarray(thresholds, dtype=np.int64)
        if thresholds.shape != (len(banks),):
            raise ConfigurationError(
                f"expected {len(banks)} thresholds, "
                f"got shape {thresholds.shape}"
            )
        if np.any(thresholds < 0) or np.any(thresholds > 0xFFFF_FFFF):
            raise ConfigurationError(
                "per-bank thresholds must fit the 32-bit register"
            )
        if labels is None:
            labels = DEFAULT_BANK_LABELS[:len(banks)]
        labels = tuple(str(label) for label in labels)
        if len(labels) != len(banks):
            raise ConfigurationError(
                f"expected {len(banks)} labels, got {len(labels)}"
            )
        self._banks = banks
        self._thresholds = thresholds.copy()
        self._labels = labels
        self._last = np.zeros(len(banks), dtype=bool)
        self._restack()

    def load_bank(self, index: int, coeffs_i: np.ndarray,
                  coeffs_q: np.ndarray, label: str | None = None) -> None:
        """Hot-swap one bank's coefficients (effective next chunk).

        The shared sign history and every bank's trigger carry are
        untouched — swapping a template does not clear the hardware
        shift register or the comparator output registers.
        """
        self._require_configured()
        if not 0 <= index < len(self._banks):
            raise ConfigurationError(
                f"bank index {index} outside the {len(self._banks)} "
                "loaded banks"
            )
        self._banks[index] = _check_bank(coeffs_i, coeffs_q)
        if label is not None:
            labels = list(self._labels)
            labels[index] = str(label)
            self._labels = tuple(labels)
        self._restack()

    def set_label(self, index: int, label: str) -> None:
        """Rename one bank's host-side protocol label."""
        self._require_configured()
        if not 0 <= index < len(self._banks):
            raise ConfigurationError(
                f"bank index {index} outside the {len(self._banks)} "
                "loaded banks"
            )
        labels = list(self._labels)
        labels[index] = str(label)
        self._labels = tuple(labels)

    def set_threshold(self, index: int, threshold: int) -> None:
        """Retune one bank's detection threshold (effective next chunk)."""
        self._require_configured()
        if not 0 <= index < len(self._banks):
            raise ConfigurationError(
                f"bank index {index} outside the {len(self._banks)} "
                "loaded banks"
            )
        threshold = int(threshold)
        if not 0 <= threshold <= 0xFFFF_FFFF:
            raise ConfigurationError(
                "threshold must fit the 32-bit register"
            )
        self._thresholds[index] = threshold

    def _restack(self) -> None:
        self._stacked = prepare_stacked(self._banks)
        if self._gemm_scratch is None \
                or self._gemm_scratch.dtype != self._stacked.gemm_dtype:
            self._gemm_scratch = ScratchBuffer(self._stacked.gemm_dtype)

    def _require_configured(self) -> None:
        if self._stacked is None:
            raise ConfigurationError(
                "no banks loaded; call load_banks() first"
            )

    # ------------------------------------------------------------------
    # Telemetry

    def attach_metrics(self, registry) -> None:
        """Fold stacked-pass throughput counters into a registry.

        Exposes ``kernels.xcorr_stacked.chunks`` /
        ``kernels.xcorr_stacked.samples`` and bumps the shared
        ``kernels.backend.<name>.selected`` once.  Pass ``None`` to
        detach.
        """
        if registry is None:
            self._metric_chunks = None
            self._metric_samples = None
            return
        self._metric_chunks = registry.counter("kernels.xcorr_stacked.chunks")
        self._metric_samples = registry.counter(
            "kernels.xcorr_stacked.samples")
        registry.counter(
            f"kernels.backend.{self._backend.name}.selected").inc()

    # ------------------------------------------------------------------
    # Streaming state

    def reset(self) -> None:
        """Clear the sign history and trigger carries (hardware reset)."""
        self._history[:] = 0
        self._last[:] = False

    def clear_last(self) -> None:
        """Forget the trigger carries only (used across skipped gaps)."""
        self._last[:] = False

    def _assemble_plane(self, samples: np.ndarray) -> np.ndarray:
        history = self._history.size
        plane = self._plane_scratch.view(history + 2 * samples.size)
        plane[:history] = self._history
        sign_plane(samples, out=plane[history:])
        self._history[:] = plane[2 * samples.size:]
        if self._metric_chunks is not None:
            self._metric_chunks.inc()
            self._metric_samples.inc(samples.size)
        return plane

    def metric(self, samples: np.ndarray) -> np.ndarray:
        """Per-bank squared metric, ``(K, n)``; consumes the chunk."""
        self._require_configured()
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StreamError(
                "BankedCrossCorrelator expects a 1-D sample chunk")
        if samples.size == 0:
            return np.zeros((self.n_banks, 0), dtype=np.int64)
        plane = self._assemble_plane(samples)
        return self._backend.xcorr_metric_stacked(
            plane, self._stacked, scratch=self._gemm_scratch)

    def detect(self, samples: np.ndarray
               ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """One stacked pass: ``((K, n) trigger, per-bank edge indices)``.

        The per-bank trigger carry is owned here (unlike the
        single-bank facade, where the core threads it through), so the
        caller simply feeds chunks.
        """
        self._require_configured()
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StreamError(
                "BankedCrossCorrelator expects a 1-D sample chunk")
        if samples.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return (np.zeros((self.n_banks, 0), dtype=bool),
                    tuple(empty for _ in range(self.n_banks)))
        plane = self._assemble_plane(samples)
        result = xcorr_detect_stacked(plane, self._stacked,
                                      self._thresholds, last=self._last,
                                      backend=self._backend,
                                      scratch=self._gemm_scratch)
        self._last = result.last
        return result.trigger, result.edges
