"""The 64-sample sign-bit weighted phase cross-correlator (paper Fig. 3).

The block is extracted from the Rice WARP OFDM reference design: each
incoming 16-bit I/Q pair is sliced to its sign bit (1-bit signed,
giving 90-degree phase resolution), then correlated against a template
of 64 3-bit signed coefficients for I and Q.  The complex correlation
magnitude-squared is compared against a user threshold to produce the
detection trigger.

With template ``c[k] = cI[k] + j*cQ[k]`` and sliced signal
``s[n] = sign(I[n]) + j*sign(Q[n])`` the correlator computes::

    corr[n] = sum_k conj(c[k]) * s[n - 63 + k]
    metric[n] = Re(corr)^2 + Im(corr)^2        (the two x^2 paths in Fig. 3)
    trigger[n] = metric[n] > threshold

The output peaks on the sample where the last template symbol arrives,
so a detection fires exactly 64 samples (2.56 us at 25 MSPS) after the
start of a 64-sample preamble — the paper's T_xcorr_det.

This class is the thin stateful *facade* for 1..``MAX_BANKS`` such
correlators sharing one sign-sliced input, as in the multi-standard
detector of Chacko et al.: one datapath, run-time-swappable banks.  It
owns the streaming sign history, per-bank thresholds and labels, while
the per-sample math runs in :mod:`repro.kernels` (one GEMM per chunk
for every bank instead of the four ``np.correlate`` passes the seed
model used).  :meth:`CrossCorrelator.detect` writes the ``K`` trigger
rows of the DSP core's stacked trigger plane; rising edges and their
carries belong to the core.  The core keeps two instances: the paper's
legacy registers program a one-bank correlator, the bank registers a
K-bank one.  A correlator none of whose banks can fire
(:attr:`silent`, the power-on state) skips the kernel and only copies
the tail of each chunk its sign history keeps; the copied samples are
signed when the history is next read (a live chunk, :meth:`metric`,
:attr:`CrossCorrelator.history`), and :meth:`reset` drops them.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fixed_point import COEFF3
from repro.errors import ConfigurationError, StreamError
from repro.hw.register_map import CORRELATOR_LENGTH, MAX_BANKS
from repro.kernels import (
    clamped_thresholds,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
    xcorr_metric,
)
from repro.runtime.buffers import ScratchBuffer
from repro.runtime.cache import cached_artifact

#: Pipeline latency from last-sample arrival to trigger assertion, in
#: FPGA clock cycles.  The comparator output registers once.
PIPELINE_LATENCY_CLOCKS = 1

#: Upper bound of the metric: |Re| and |Im| are each at most
#: 64 * (|cI| + |cQ|) <= 64 * (4 + 4), so the metric fits in 32 bits.
METRIC_MAX = 2 * (CORRELATOR_LENGTH * 8) ** 2

#: Host-side protocol names when the caller provides none.
DEFAULT_BANK_LABELS = tuple(f"bank{k}" for k in range(MAX_BANKS))


@cached_artifact
def quantize_coefficients(template: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # repro-lint: disable=RJ003 (host-side offline step, not datapath)
    """Quantize a complex template to 3-bit signed I/Q coefficients.

    The host generates these offline from knowledge of the standard's
    preamble (paper §2.3).  The template is scaled so its largest
    component magnitude maps to the 3-bit maximum (+3), then rounded.

    Memoized by template content (:mod:`repro.runtime.cache`): the
    returned banks are frozen read-only arrays shared by every caller;
    :meth:`CrossCorrelator.load_bank` copies them anyway.

    Returns:
        ``(coeffs_i, coeffs_q)`` int arrays of length 64 in [-4, 3].
    """
    template = np.asarray(template, dtype=np.complex128)
    if template.size != CORRELATOR_LENGTH:
        raise ConfigurationError(
            f"correlator template must have {CORRELATOR_LENGTH} samples, "
            f"got {template.size}"
        )
    peak = float(np.max(np.abs(np.concatenate([template.real, template.imag]))))
    if peak == 0.0:
        raise ConfigurationError("correlator template has zero energy")
    scaled = template / peak * COEFF3.max_int
    coeffs_i = COEFF3.to_int(scaled.real)
    coeffs_q = COEFF3.to_int(scaled.imag)
    return coeffs_i.astype(np.int64), coeffs_q.astype(np.int64)


def _check_bank(coeffs_i: np.ndarray | None,
                coeffs_q: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Validate one 64-tap 3-bit bank; returns int64 copies."""
    bank = []
    for name, coeffs in (("I", coeffs_i), ("Q", coeffs_q)):
        if coeffs is None:
            raise ConfigurationError(f"missing {name} coefficient bank")
        coeffs = np.array(coeffs, dtype=np.int64)
        if coeffs.ndim != 1 or coeffs.size != CORRELATOR_LENGTH:
            raise ConfigurationError(
                f"{name} bank must have {CORRELATOR_LENGTH} coefficients"
            )
        if np.any(coeffs < COEFF3.min_int) \
                or np.any(coeffs > COEFF3.max_int):
            raise ConfigurationError(
                f"{name} coefficients exceed the 3-bit signed range"
            )
        bank.append(coeffs)
    return bank[0], bank[1]


def _check_threshold(value) -> int:
    value = int(value)
    if not 0 <= value <= 0xFFFF_FFFF:
        raise ConfigurationError("threshold must fit the 32-bit register")
    return value


class CrossCorrelator:
    """Streaming sign-bit cross-correlator over 1..``MAX_BANKS`` banks.

    Every bank is 64 taps, so the banks share the last 63 sign pairs
    across chunk boundaries and feeding a signal chunk-wise matches a
    single-shot call.  Bank ``k``'s output is byte-identical to a
    one-bank correlator holding only bank ``k``.  The constructor
    loads one bank (zeros and a never-firing threshold by default, the
    power-on state); :meth:`load_banks` loads ``K``.
    """

    def __init__(self, coeffs_i: np.ndarray | None = None,
                 coeffs_q: np.ndarray | None = None,
                 threshold: int = METRIC_MAX) -> None:
        # The interleaved sign history (zeros after reset, exactly as
        # the hardware shift register clears); the scratch carries the
        # [history | chunk] plane across calls without reallocating.
        self._history = np.zeros(2 * (CORRELATOR_LENGTH - 1),
                                 dtype=np.int8)
        # Silent chunks' samples not yet signed into the history: the
        # last `_pending` samples of the stream, right-aligned here.
        self._tail = np.zeros(CORRELATOR_LENGTH - 1, dtype=np.complex128)
        self._pending = 0
        self._plane_scratch = ScratchBuffer(np.int8)
        if coeffs_i is None and coeffs_q is None:
            coeffs_i = coeffs_q = np.zeros(CORRELATOR_LENGTH,
                                           dtype=np.int64)
        self.load_banks([(coeffs_i, coeffs_q)], [threshold])

    # ------------------------------------------------------------------
    # Configuration

    @property
    def n_banks(self) -> int:
        """Number of loaded banks ``K``."""
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
    def threshold(self) -> int:
        """Bank 0's threshold, the paper's legacy threshold register."""
        return int(self._thresholds[0])

    @threshold.setter
    def threshold(self, value: int) -> None:
        self.set_threshold(0, value)

    @property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Bank 0's I and Q coefficients (copies)."""
        return self.bank_coefficients(0)

    @property
    def prepared_coefficients(self):
        """The kernel-ready coefficient operand (frozen, shareable)."""
        return self._prepared

    @property
    def silent(self) -> bool:
        """Whether no stream can fire: each threshold >= its ceiling.

        A bank's trigger needs ``metric > threshold`` and no metric
        exceeds :func:`repro.kernels.metric_ceiling`, so a silent
        correlator's triggers are all False whatever it receives.
        :meth:`detect` skips the GEMM for it and keeps only the chunk
        tail its history needs, signed when the history is next read;
        the hardware runs the datapath regardless, with the same
        (empty) output.
        """
        return self._silent

    @property
    def history(self) -> np.ndarray:
        """The interleaved sign history of the last 63 samples (copy).

        Pending samples of silent chunks are signed into it first.
        """
        self._settle()
        return self._history.copy()

    def bank_coefficients(self, index: int
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Bank ``index``'s I and Q coefficients (copies)."""
        coeffs_i, coeffs_q = self._banks[index]
        return coeffs_i.copy(), coeffs_q.copy()

    def load_banks(self, banks, thresholds, labels=None) -> None:
        """Load a full bank set: ``K`` ``(coeffs_i, coeffs_q)`` pairs.

        Replaces any previous configuration while the shared sign
        history — received data — is kept.  The DSP core restarts the
        loaded correlator's trigger carries cleared (as ``K``
        freshly-reset correlators would).
        """
        banks = [_check_bank(ci, cq) for ci, cq in banks]
        if not 1 <= len(banks) <= MAX_BANKS:
            raise ConfigurationError(
                f"bank count must be 1..{MAX_BANKS}, got {len(banks)}"
            )
        thresholds = [_check_threshold(t) for t in thresholds]
        if len(thresholds) != len(banks):
            raise ConfigurationError(
                f"expected {len(banks)} thresholds, got {len(thresholds)}"
            )
        if labels is None:
            labels = DEFAULT_BANK_LABELS[:len(banks)]
        labels = tuple(str(label) for label in labels)
        if len(labels) != len(banks):
            raise ConfigurationError(
                f"expected {len(banks)} labels, got {len(labels)}"
            )
        self._banks = banks
        self._thresholds = np.array(thresholds, dtype=np.int64)
        self._labels = labels
        self._restack()

    def _check_index(self, index: int) -> int:
        if not 0 <= index < len(self._banks):
            raise ConfigurationError(
                f"bank index {index} outside the {len(self._banks)} "
                "loaded banks"
            )
        return index

    def load_bank(self, index: int, coeffs_i: np.ndarray | None,
                  coeffs_q: np.ndarray | None,
                  label: str | None = None) -> None:
        """Hot-swap one bank's coefficients (effective next chunk).

        The sign history (and the core's trigger carries) are
        untouched — swapping a template does not clear the hardware
        shift register or the comparator output registers.
        """
        self._check_index(index)
        self._banks[index] = _check_bank(coeffs_i, coeffs_q)
        if label is not None:
            self.set_label(index, label)
        self._restack()

    def load_coefficients(self, coeffs_i: np.ndarray | None,
                          coeffs_q: np.ndarray | None) -> None:
        """Load bank 0, the paper's legacy coefficient registers."""
        self.load_bank(0, coeffs_i, coeffs_q)

    def set_label(self, index: int, label: str) -> None:
        """Rename one bank's host-side protocol label."""
        labels = list(self._labels)
        labels[self._check_index(index)] = str(label)
        self._labels = tuple(labels)

    def set_threshold(self, index: int, threshold: int) -> None:
        """Retune one bank's detection threshold (effective next chunk)."""
        self._check_index(index)
        self._thresholds[index] = _check_threshold(threshold)
        self._update_limits()

    def _restack(self) -> None:
        self._prepared = prepare_coefficients(self._banks)
        self._update_limits()

    def _update_limits(self) -> None:
        # The silent rule and the kernel's compare limits, derived once
        # per threshold or bank change rather than per chunk.
        ceilings = self._prepared.ceilings
        self._silent = all(threshold >= ceiling for threshold, ceiling
                           in zip(self._thresholds.tolist(), ceilings))
        self._limits = clamped_thresholds(self._prepared, self._thresholds)

    # ------------------------------------------------------------------
    # Streaming state

    def reset(self) -> None:
        """Clear the sign history (hardware reset)."""
        self._history[:] = 0
        self._pending = 0

    @staticmethod
    def _checked(samples: np.ndarray) -> np.ndarray:
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StreamError("CrossCorrelator expects a 1-D sample chunk")
        return samples

    def _assemble_plane(self, samples: np.ndarray) -> np.ndarray:
        """[history | chunk] interleaved sign plane in scratch storage."""
        self._settle()
        history = self._history.size
        plane = self._plane_scratch.view(history + 2 * samples.size)
        plane[:history] = self._history
        sign_plane(samples, out=plane[history:])
        # The new history is the last 63 sign pairs of the plane; the
        # scratch is distinct storage, so this holds for any chunk size.
        self._history[:] = plane[2 * samples.size:]
        return plane

    def _defer(self, samples: np.ndarray) -> None:
        """Keep a silent chunk's surviving tail for a later :meth:`_settle`.

        Only the last 63 samples of the stream reach the history, so a
        chunk at least that long replaces the pending tail; a shorter
        one shifts the kept part forward first.
        """
        n = samples.size
        tail = self._tail
        if n >= tail.size:
            tail[:] = samples[n - tail.size:]
            self._pending = tail.size
        else:
            tail[:-n] = tail[n:]
            tail[-n:] = samples
            self._pending = min(self._pending + n, tail.size)

    def _settle(self) -> None:
        """Sign the pending samples into the history, shifting it first."""
        pending = self._pending
        if not pending:
            return
        self._pending = 0
        history = self._history
        if pending < self._tail.size:
            history[:-2 * pending] = history[2 * pending:]
        sign_plane(self._tail[-pending:], out=history[-2 * pending:])

    def metric(self, samples: np.ndarray) -> np.ndarray:
        """Per-bank squared correlation metric, ``(K, n)``.

        Consumes the chunk and updates the history.  ``metric[k, n]``
        corresponds to the window *ending* at chunk sample ``n``;
        windows that reach back before the first-ever sample see the
        reset history, which contributes zero to the correlation.
        """
        samples = self._checked(samples)
        if samples.size == 0:
            return np.zeros((self.n_banks, 0), dtype=np.int64)
        return xcorr_metric(self._assemble_plane(samples), self._prepared)

    def detect(self, samples: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Per-bank boolean trigger, ``(K, n)``: metric > threshold.

        Consumes the chunk.  The trigger rows are written into ``out``
        when given — the DSP core passes the correlator rows of its
        stacked trigger plane — and returned.  A :attr:`silent`
        correlator calls no kernel: it keeps the chunk tail its sign
        history needs and writes all-False rows.
        """
        samples = self._checked(samples)
        if out is None:
            out = np.empty((self.n_banks, samples.size), dtype=bool)
        if samples.size == 0:
            return out
        if self._silent:
            self._defer(samples)
            out.fill(False)
            return out
        return xcorr_detect(self._assemble_plane(samples), self._prepared,
                            self._limits, out=out)
