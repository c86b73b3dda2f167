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

This class is the thin stateful *facade*: it owns the streaming
history, the threshold register, and the scratch buffers, while the
per-sample math runs in :mod:`repro.kernels` (one fused kernel call
per chunk instead of the four ``np.correlate`` passes the seed model
used).  The kernel backend is picked at construction
(:func:`repro.kernels.get_backend`, honoring ``REPRO_KERNEL_BACKEND``)
and every backend is byte-identical to the numpy reference.  A
correlator whose threshold no metric can exceed (:attr:`silent`, the
power-on state) skips the kernel and only carries its sign history.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fixed_point import COEFF3
from repro.errors import ConfigurationError, StreamError
from repro.hw.register_map import CORRELATOR_LENGTH
from repro.kernels import (
    get_backend,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
)
from repro.runtime.buffers import ScratchBuffer
from repro.runtime.cache import cached_artifact

#: Pipeline latency from last-sample arrival to trigger assertion, in
#: FPGA clock cycles.  The comparator output registers once.
PIPELINE_LATENCY_CLOCKS = 1

#: Upper bound of the metric: |Re| and |Im| are each at most
#: 64 * (|cI| + |cQ|) <= 64 * (4 + 4), so the metric fits in 32 bits.
METRIC_MAX = 2 * (CORRELATOR_LENGTH * 8) ** 2


def metric_ceiling(coeffs_i: np.ndarray, coeffs_q: np.ndarray) -> int:
    """Upper bound of a bank's metric: ``2 * (sum|cI| + sum|cQ|)**2``.

    Each sign-bit product contributes at most ``|cI| + |cQ|`` to
    ``|Re|`` and to ``|Im|``, so neither exceeds the sum over taps.
    """
    bound = int(np.abs(coeffs_i).sum() + np.abs(coeffs_q).sum())
    return 2 * bound * bound


@cached_artifact
def quantize_coefficients(template: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # repro-lint: disable=RJ003 (host-side offline step, not datapath)
    """Quantize a complex template to 3-bit signed I/Q coefficients.

    The host generates these offline from knowledge of the standard's
    preamble (paper §2.3).  The template is scaled so its largest
    component magnitude maps to the 3-bit maximum (+3), then rounded.

    Memoized by template content (:mod:`repro.runtime.cache`): the
    returned banks are frozen read-only arrays shared by every caller;
    :meth:`CrossCorrelator.load_coefficients` copies them anyway.

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


class CrossCorrelator:
    """Streaming sign-bit cross-correlator with run-time coefficients.

    The block keeps the last 63 sign pairs across chunk boundaries so
    that feeding a signal chunk-wise matches a single-shot call.
    """

    def __init__(self, coeffs_i: np.ndarray | None = None,
                 coeffs_q: np.ndarray | None = None,
                 threshold: int = METRIC_MAX,
                 backend: str | None = None) -> None:
        self._backend = get_backend(backend)
        self._coeffs_i = np.zeros(CORRELATOR_LENGTH, dtype=np.int64)
        self._coeffs_q = np.zeros(CORRELATOR_LENGTH, dtype=np.int64)
        self._prepared = prepare_coefficients(self._coeffs_i,
                                              self._coeffs_q)
        self._ceiling = 0
        if coeffs_i is not None or coeffs_q is not None:
            self.load_coefficients(coeffs_i, coeffs_q)
        self.threshold = threshold
        # The interleaved sign history (zeros after reset, exactly as
        # the hardware shift register clears); the scratch buffers
        # carry the [history | chunk] plane and the kernel's padded
        # GEMM storage across calls without reallocating.
        self._history = np.zeros(2 * (CORRELATOR_LENGTH - 1),
                                 dtype=np.int8)
        self._plane_scratch = ScratchBuffer(np.int8)
        self._gemm_scratch = ScratchBuffer(self._prepared.gemm_dtype)
        self._metric_chunks = None
        self._metric_samples = None

    @property
    def backend(self) -> str:
        """Name of the kernel backend this instance dispatches to."""
        return self._backend.name

    @property
    def threshold(self) -> int:
        """Detection threshold compared against the squared metric."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF_FFFF:
            raise ConfigurationError("threshold must fit the 32-bit register")
        self._threshold = int(value)

    @property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Current I and Q coefficient banks (copies)."""
        return self._coeffs_i.copy(), self._coeffs_q.copy()

    @property
    def prepared_coefficients(self):
        """The kernel-ready coefficient bank (frozen, shareable)."""
        return self._prepared

    @property
    def silent(self) -> bool:
        """Whether no stream can fire: threshold >= the bank's ceiling.

        The trigger needs ``metric > threshold`` and no metric exceeds
        :func:`metric_ceiling`, so a silent correlator's triggers are
        all False whatever it receives.  :meth:`detect` skips the GEMM
        for it; the hardware runs the datapath regardless, with the
        same (empty) output.
        """
        return self._threshold >= self._ceiling

    def load_coefficients(self, coeffs_i: np.ndarray | None,
                          coeffs_q: np.ndarray | None) -> None:
        """Load 3-bit signed coefficient banks (run-time programmable)."""
        for name, bank in (("I", coeffs_i), ("Q", coeffs_q)):
            if bank is None:
                raise ConfigurationError(f"missing {name} coefficient bank")
        coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
        coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
        for name, bank in (("I", coeffs_i), ("Q", coeffs_q)):
            if bank.size != CORRELATOR_LENGTH:
                raise ConfigurationError(
                    f"{name} bank must have {CORRELATOR_LENGTH} coefficients"
                )
            if np.any(bank < COEFF3.min_int) or np.any(bank > COEFF3.max_int):
                raise ConfigurationError(
                    f"{name} coefficients exceed the 3-bit signed range"
                )
        self._coeffs_i = coeffs_i.copy()
        self._coeffs_q = coeffs_q.copy()
        self._prepared = prepare_coefficients(coeffs_i, coeffs_q)
        self._ceiling = metric_ceiling(coeffs_i, coeffs_q)

    def attach_metrics(self, registry) -> None:
        """Fold per-chunk throughput counters into a metrics registry.

        Exposes ``kernels.xcorr.chunks`` / ``kernels.xcorr.samples``
        and bumps ``kernels.backend.<name>.selected`` once, so a
        telemetry snapshot records which backend produced the run.
        Pass ``None`` to detach.
        """
        if registry is None:
            self._metric_chunks = None
            self._metric_samples = None
            return
        self._metric_chunks = registry.counter("kernels.xcorr.chunks")
        self._metric_samples = registry.counter("kernels.xcorr.samples")
        registry.counter(
            f"kernels.backend.{self._backend.name}.selected").inc()

    def reset(self) -> None:
        """Clear the sign-bit history (as a hardware reset would)."""
        self._history[:] = 0

    def _assemble_plane(self, samples: np.ndarray) -> np.ndarray:
        """[history | chunk] interleaved sign plane in scratch storage."""
        history = self._history.size
        plane = self._plane_scratch.view(history + 2 * samples.size)
        plane[:history] = self._history
        sign_plane(samples, out=plane[history:])
        # The new history is the last 63 sign pairs of the plane; the
        # scratch is distinct storage, so this holds for any chunk size.
        self._history[:] = plane[2 * samples.size:]
        if self._metric_chunks is not None:
            self._metric_chunks.inc()
            self._metric_samples.inc(samples.size)
        return plane

    def metric(self, samples: np.ndarray) -> np.ndarray:
        """Squared correlation metric per incoming sample.

        Consumes the chunk and updates the history.  ``metric[n]``
        corresponds to the window *ending* at chunk sample ``n``;
        windows that reach back before the first-ever sample see the
        reset history, which contributes zero to the correlation.
        """
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StreamError("CrossCorrelator expects a 1-D sample chunk")
        if samples.size == 0:
            return np.zeros(0, dtype=np.int64)
        plane = self._assemble_plane(samples)
        return self._backend.xcorr_metric(plane, self._prepared,
                                          scratch=self._gemm_scratch)

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Boolean trigger per incoming sample (metric > threshold)."""
        return self.metric(samples) > self._threshold

    def detect(self, samples: np.ndarray, last: bool = False):
        """The fused datapath: ``(trigger, rising-edge indices)``.

        ``last`` carries the final trigger value of the previous chunk
        so edges are not double-counted across chunk boundaries.  One
        kernel call yields metric, threshold compare, and edges — the
        path :class:`repro.hw.dsp_core.CustomDspCore` runs per chunk.
        A :attr:`silent` correlator skips the kernel: it carries its
        sign history and returns an all-False trigger and no edges.
        """
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise StreamError("CrossCorrelator expects a 1-D sample chunk")
        if samples.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        plane = self._assemble_plane(samples)
        if self.silent:
            return (np.zeros(samples.size, dtype=bool),
                    np.zeros(0, dtype=np.int64))
        result = xcorr_detect(plane, self._prepared, self._threshold,
                              last=last, backend=self._backend,
                              scratch=self._gemm_scratch)
        return result.trigger, result.edges
