"""Fused, batched sign-bit cross-correlation kernels.

The paper's correlator (Fig. 3) is one fixed-point pipeline: slice
each I/Q pair to its sign bit, correlate against 64 3-bit complex
coefficients, square, compare, trigger.  The seed software model spent
four separate ``np.correlate`` passes per chunk on this; here the
whole datapath is two GEMMs.

**Layout.**  A chunk becomes an *interleaved sign plane*:
``plane[2m] = sign(I[m])``, ``plane[2m+1] = sign(Q[m])``, prefixed by
the ``2 * (taps - 1)`` entries of carried history (zeros after reset,
matching the hardware).  With the stacked coefficient matrix ``C`` of
shape ``(2T, 2)``::

    C[2k, 0] = cI[k]   C[2k+1, 0] = cQ[k]     # -> corr_re
    C[2k, 1] = -cQ[k]  C[2k+1, 1] = cI[k]     # -> corr_im

the window starting at pair ``t`` satisfies
``(corr_re[t], corr_im[t]) = plane[2t : 2t + 2T] @ C`` — both
correlator accumulators from one product.

**Block-Toeplitz evaluation.**  Gathering every window explicitly
(``sliding_window_view`` + matmul) is memory-bound: each input element
is copied ~64 times.  Instead the plane is cut into contiguous
non-overlapping blocks of ``2S`` entries (``S = taps``) and the
windows are recovered algebraically: every window spans at most two
consecutive blocks, so with banded Toeplitz matrices ``A`` and ``B``
(``A[tau, 2j+c] = C[tau - 2j, c]`` where defined, ``B`` the
continuation into the next block)::

    out = X0 @ A + X1 @ B        # X1 = X0 shifted one block

which runs at full BLAS speed on the untouched input layout.

**Stacked banks.**  Half of the two bands is zero: window ``j`` of a
block reads the last ``2(S - j)`` entries of its ``X0`` row and the
first ``2j`` of its ``X1`` row.  The ``K``-bank kernel, whose GEMM
dominates its chunk, wastes less: each GEMM row holds the ``S + T - 1``
pairs read by ``S = 16`` consecutive windows (a strided gather of the
plane, copying each entry about five times), and one GEMM against a
``(2(S + T - 1), 2K * S)`` band evaluates every bank.  With ``T = 64``
it performs about 60% of the block-Toeplitz multiply-adds in one BLAS
call instead of two.

**Exactness.**  Every partial sum is an integer bounded by
``sum(|cI| + |cQ|)`` and the metric by twice its square; when that
fits float32's 2**24 integer window (it does for 3-bit banks: bound
512, metric 524288) the GEMM is performed in float32 and is *exact* —
every intermediate is an exactly-representable integer regardless of
summation order.  Larger banks fall back to float64 (exact through
2**53).  The result is bit-identical to the int64 reference, which the
parity tests enforce property-style.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, StreamError
from repro.kernels.dispatch import KernelBackend, get_backend
from repro.runtime.cache import cached_artifact

#: Largest integer float32 runs an exact accumulation over.
_F32_EXACT_LIMIT = 1 << 24

#: Prepared-bank memo (insertion-ordered; oldest evicted at the cap).
_PREPARED_CACHE: dict[tuple[bytes, bytes], "XcorrCoefficients"] = {}
_PREPARED_CACHE_MAX = 16

#: Windows per GEMM row of the stacked kernel (``S`` of its band).
STACKED_WINDOWS = 16

#: Int8 scalars for the in-place 0/1 -> +1/-1 sign mapping.
_SIGN_SCALE = np.int8(-2)
_SIGN_POS = np.int8(1)


@dataclass(frozen=True)
class XcorrCoefficients:
    """A coefficient bank prepared for the fused kernel.

    Attributes:
        taps: Template length ``T`` (64 for the paper's correlator).
        stacked: ``(2T, 2)`` int64 stacked coefficient matrix (the
            ``C`` of the module docstring) — integer ground truth used
            by the reference/JIT paths.
        gemm_dtype: float32 when the exactness bound allows, else
            float64.
        block: Block length ``S`` of the Toeplitz evaluation (= taps).
        a_matrix: ``(2S, 2S)`` in-block Toeplitz band, ``gemm_dtype``.
        b_matrix: ``(2S, 2S)`` next-block continuation band.
    """

    taps: int
    stacked: np.ndarray
    gemm_dtype: np.dtype
    block: int
    a_matrix: np.ndarray
    b_matrix: np.ndarray

    @property
    def history_pairs(self) -> int:
        """Sign pairs of history a stream must carry: ``taps - 1``."""
        return self.taps - 1


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def prepare_coefficients(coeffs_i: np.ndarray,
                         coeffs_q: np.ndarray) -> XcorrCoefficients:
    """Build the stacked and Toeplitz matrices for a coefficient bank.

    Memoized on the bank contents: sweep trials re-prepare the same
    bank thousands of times, and the prepared matrices are frozen, so
    sharing one instance is safe.
    """
    coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
    coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
    if coeffs_i.ndim != 1 or coeffs_i.shape != coeffs_q.shape:
        raise ConfigurationError(
            "coefficient banks must be two 1-D arrays of equal length"
        )
    taps = coeffs_i.size
    if taps < 1:
        raise ConfigurationError("coefficient banks must not be empty")
    key = (coeffs_i.tobytes(), coeffs_q.tobytes())
    cached = _PREPARED_CACHE.get(key)
    if cached is not None:
        return cached

    stacked = np.zeros((2 * taps, 2), dtype=np.int64)
    stacked[0::2, 0] = coeffs_i
    stacked[1::2, 0] = coeffs_q
    stacked[0::2, 1] = -coeffs_q
    stacked[1::2, 1] = coeffs_i

    # |corr_re|, |corr_im| <= bound; metric <= 2 * bound**2.  Exact in
    # float32 iff the metric stays inside the 2**24 integer window.
    bound = int(np.sum(np.abs(coeffs_i)) + np.sum(np.abs(coeffs_q)))
    exact_in_f32 = 2 * bound * bound < _F32_EXACT_LIMIT
    gemm_dtype = np.dtype(np.float32 if exact_in_f32 else np.float64)

    block = taps
    two_s = 2 * block
    # A[tau, j, c] = stacked[tau - 2j, c] for 0 <= tau - 2j < 2T;
    # B picks up the band where it wraps past the block boundary.
    offsets = np.arange(two_s)[:, None] - 2 * np.arange(block)[None, :]
    clipped = offsets.clip(0, 2 * taps - 1)
    in_band = (offsets >= 0) & (offsets < 2 * taps)
    a_matrix = np.where(in_band[:, :, None], stacked[clipped], 0)
    offsets_b = offsets + two_s
    clipped_b = offsets_b.clip(0, 2 * taps - 1)
    in_band_b = (offsets_b >= 0) & (offsets_b < 2 * taps)
    b_matrix = np.where(in_band_b[:, :, None], stacked[clipped_b], 0)

    prepared = XcorrCoefficients(
        taps=taps,
        stacked=_freeze(stacked),
        gemm_dtype=gemm_dtype,
        block=block,
        a_matrix=_freeze(a_matrix.reshape(two_s, two_s).astype(gemm_dtype)),
        b_matrix=_freeze(b_matrix.reshape(two_s, two_s).astype(gemm_dtype)),
    )
    if len(_PREPARED_CACHE) >= _PREPARED_CACHE_MAX:
        _PREPARED_CACHE.pop(next(iter(_PREPARED_CACHE)))
    _PREPARED_CACHE[key] = prepared
    return prepared


@dataclass(frozen=True)
class StackedCoefficients:
    """``K`` protocol banks prepared for one stacked GEMM pass.

    The banks are zero-padded *at the front* to the longest bank's
    length ``T`` and interleaved into one band operand: the stacked
    matrix ``C`` grows to ``(2T, 2K)`` with bank ``k``'s corr_re in
    column ``2k`` and corr_im in column ``2k + 1``, and the band to
    ``(2(S + T - 1), 2K * S)`` with flattened column index
    ``(c * K + k) * S + j`` for window ``j`` of a GEMM row — so one
    GEMM over the *shared* sign plane evaluates every bank at once and
    the output splits into per-component, per-bank metric rows.

    Front-padding preserves the per-sample metric exactly: a padded
    window's extra leading coefficients are zero, so they contribute
    nothing regardless of what the (longer) shared history holds.
    Bank ``k``'s row of the stacked metric is therefore byte-identical
    to an independent single-bank correlator of length
    ``bank_taps[k]`` — the invariant the parity suite pins.

    Attributes:
        taps: Padded common template length ``T`` (= max bank length).
        n_banks: Number of stacked banks ``K``.
        bank_taps: Original (pre-padding) length of each bank.
        stacked: ``(2T, 2K)`` int64 stacked coefficient matrix.
        gemm_dtype: float32 when *every* bank satisfies the exactness
            bound, else float64 (both are exact; see module docstring).
        block: Windows per GEMM row ``S`` (:data:`STACKED_WINDOWS`).
        band: ``(2(S + T - 1), 2K * S)`` band, ``gemm_dtype``.
    """

    taps: int
    n_banks: int
    bank_taps: tuple[int, ...]
    stacked: np.ndarray
    gemm_dtype: np.dtype
    block: int
    band: np.ndarray

    @property
    def history_pairs(self) -> int:
        """Sign pairs of history a stream must carry: ``taps - 1``."""
        return self.taps - 1


def _normalize_banks(banks) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Validate and canonicalize a bank list for the artifact cache.

    Lists and tuples tokenize differently in the cache key, so every
    entry point funnels through this one canonical
    tuple-of-(int64, int64) form before the memoized builders run.
    """
    normalized = []
    for bank in banks:
        coeffs_i, coeffs_q = bank
        coeffs_i = np.asarray(coeffs_i, dtype=np.int64)
        coeffs_q = np.asarray(coeffs_q, dtype=np.int64)
        if coeffs_i.ndim != 1 or coeffs_i.shape != coeffs_q.shape:
            raise ConfigurationError(
                "each bank must be two 1-D arrays of equal length"
            )
        if coeffs_i.size < 1:
            raise ConfigurationError("coefficient banks must not be empty")
        normalized.append((coeffs_i, coeffs_q))
    if not normalized:
        raise ConfigurationError("a stacked bank needs at least one bank")
    return tuple(normalized)


@cached_artifact
def _prepare_stacked(banks) -> StackedCoefficients:
    taps = max(coeffs_i.size for coeffs_i, _ in banks)
    n_banks = len(banks)
    bank_taps = tuple(coeffs_i.size for coeffs_i, _ in banks)

    stacked = np.zeros((2 * taps, 2 * n_banks), dtype=np.int64)
    bound = 0
    for k, (coeffs_i, coeffs_q) in enumerate(banks):
        pad = taps - coeffs_i.size
        padded_i = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_i])
        padded_q = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_q])
        stacked[0::2, 2 * k] = padded_i
        stacked[1::2, 2 * k] = padded_q
        stacked[0::2, 2 * k + 1] = -padded_q
        stacked[1::2, 2 * k + 1] = padded_i
        bound = max(bound, int(np.sum(np.abs(coeffs_i))
                               + np.sum(np.abs(coeffs_q))))

    # One dtype serves every bank, so the exactness bound is the worst
    # bank's.  Either dtype is exact within its bound, so the int64
    # metric is identical whichever is picked.
    exact_in_f32 = 2 * bound * bound < _F32_EXACT_LIMIT
    gemm_dtype = np.dtype(np.float32 if exact_in_f32 else np.float64)

    block = STACKED_WINDOWS
    span = 2 * (block + taps - 1)
    # band[tau, c, k, j] = stacked[tau - 2j, 2k + c] where defined:
    # window j of a GEMM row starts j pairs into the row's span.
    offsets = np.arange(span)[:, None] - 2 * np.arange(block)[None, :]
    clipped = offsets.clip(0, 2 * taps - 1)
    in_band = (offsets >= 0) & (offsets < 2 * taps)
    band = np.where(in_band[:, :, None], stacked[clipped], 0)
    band = band.reshape(span, block, n_banks, 2).transpose(0, 3, 2, 1)

    return StackedCoefficients(
        taps=taps,
        n_banks=n_banks,
        bank_taps=bank_taps,
        stacked=_freeze(stacked),
        gemm_dtype=gemm_dtype,
        block=block,
        band=_freeze(band.reshape(span, 2 * n_banks * block)
                     .astype(gemm_dtype)),
    )


def prepare_stacked(banks) -> StackedCoefficients:
    """Pad and stack ``K`` coefficient banks into one GEMM operand.

    ``banks`` is a sequence of ``(coeffs_i, coeffs_q)`` pairs; banks
    may have different lengths (each is front-padded with zeros to the
    longest).  Memoized through the artifact cache
    (:mod:`repro.runtime.cache`) on the bank contents, so sweeps and
    repeated facade loads share one frozen instance.
    """
    return _prepare_stacked(_normalize_banks(banks))


@cached_artifact
def _stacked_bank_program(banks, thresholds
                          ) -> tuple[StackedCoefficients, np.ndarray]:
    prepared = _prepare_stacked(banks)
    return prepared, np.asarray(thresholds, dtype=np.int64)


def stacked_bank_program(banks, thresholds
                         ) -> tuple[StackedCoefficients, np.ndarray]:
    """A full detection program: stacked banks plus per-bank thresholds.

    Memoized over the ``K`` bank fingerprints *and* the thresholds —
    the key a sweep varies — while the expensive padding and band
    construction is cached one level down on the banks alone, so a
    threshold-only sweep re-pads nothing.  Returns
    ``(StackedCoefficients, (K,) int64 thresholds)``, both frozen.
    """
    banks = _normalize_banks(banks)
    thresholds = tuple(int(t) for t in thresholds)
    if len(thresholds) != len(banks):
        raise ConfigurationError(
            f"got {len(thresholds)} thresholds for {len(banks)} banks"
        )
    for value in thresholds:
        if not 0 <= value <= 0xFFFF_FFFF:
            raise ConfigurationError(
                "per-bank thresholds must fit the 32-bit register"
            )
    return _stacked_bank_program(banks, thresholds)


def sign_plane(samples: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Interleave the I/Q sign bits of ``(..., n)`` complex samples.

    Matches the hardware MSB slice: negative maps to -1, everything
    else (including exact zero) to +1.  Returns ``(..., 2n)`` int8.
    """
    samples = np.asarray(samples)
    shape = samples.shape[:-1] + (2 * samples.shape[-1],)
    if out is None:
        out = np.empty(shape, dtype=np.int8)
    elif out.shape != shape:
        raise StreamError(
            f"sign plane output must have shape {shape}, got {out.shape}"
        )
    if samples.dtype == np.complex128 \
            and samples.strides[-1:] == (samples.itemsize,):
        # Complex128 memory is already the interleaved [re, im] layout
        # the plane wants, so the comparison writes straight into the
        # int8 plane viewed as bools (same itemsize), and two in-place
        # passes map 0/1 to +1/-1 — no temporaries at all.
        view = samples.view(np.float64)
        np.less(view, 0.0, out=out.view(np.bool_))
        np.multiply(out, _SIGN_SCALE, out=out)
        out += _SIGN_POS
        return out
    out[..., 0::2] = np.where(np.real(samples) < 0, -1, 1)
    out[..., 1::2] = np.where(np.imag(samples) < 0, -1, 1)
    return out


def rising_edge_plane(trigger: np.ndarray, previous_last) -> np.ndarray:
    """Elementwise rising-edge mask of a boolean trigger plane.

    ``previous_last`` is the trigger value preceding column 0 (a bool,
    or per-row bools for a 2-D plane).
    """
    edges = np.empty_like(trigger)
    edges[..., 1:] = trigger[..., 1:] & ~trigger[..., :-1]
    edges[..., 0] = trigger[..., 0] & ~np.asarray(previous_last)
    return edges


def chained_edges(trigger: np.ndarray, lengths: np.ndarray,
                  last: bool = False) -> np.ndarray:
    """Rising edges over batch rows chained as one stream.

    Row ``b``'s predecessor for column 0 is the last *valid* trigger
    of row ``b - 1`` (``last`` for row 0), exactly as if the rows had
    been fed through a streaming detector back to back.  Columns at or
    beyond each row's valid length are masked off.
    """
    batch, width = trigger.shape
    previous = np.empty_like(trigger)
    previous[:, 1:] = trigger[:, :-1]
    previous[0, 0] = last
    if batch > 1:
        previous[1:, 0] = trigger[np.arange(batch - 1), lengths[:-1] - 1]
    edges = trigger & ~previous
    edges &= np.arange(width)[None, :] < lengths[:, None]
    return edges


@dataclass(frozen=True)
class XcorrDetection:
    """Fused single-stream detection result."""

    metric: np.ndarray
    trigger: np.ndarray
    edges: np.ndarray
    last: bool


@dataclass(frozen=True)
class XcorrBatchResult:
    """Chained batch detection result.

    ``trigger``/``edge_plane`` are ``(batch, width)``; columns past a
    row's length are meaningless in ``trigger`` and already masked in
    ``edge_plane``.  ``history``/``last`` are the carry-out stream
    state, ready to seed the next :func:`xcorr_detect_batch` call.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edge_plane: np.ndarray
    history: np.ndarray
    last: bool


@dataclass(frozen=True)
class StackedDetection:
    """Fused single-stream detection result over ``K`` stacked banks.

    ``metric``/``trigger`` are ``(K, n)``; ``edges`` holds one rising-
    edge index array per bank; ``last`` is the ``(K,)`` per-bank carry
    state for the next chunk.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edges: tuple[np.ndarray, ...]
    last: np.ndarray


@dataclass(frozen=True)
class StackedBatchResult:
    """Chained batch detection result over ``K`` stacked banks.

    ``metric``/``trigger``/``edge_plane`` are ``(batch, K, width)``;
    columns past a row's length are meaningless in ``trigger`` and
    already masked in ``edge_plane``.  ``history`` (shared across
    banks) and ``last`` (``(K,)`` bools) are the carry-out stream
    state for the next call.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edge_plane: np.ndarray
    history: np.ndarray
    last: np.ndarray


def xcorr_metric(plane: np.ndarray, coeffs: XcorrCoefficients,
                 backend: "str | KernelBackend | None" = None,
                 out: np.ndarray | None = None,
                 scratch=None) -> np.ndarray:
    """Squared correlation metric over an interleaved sign plane."""
    return get_backend(backend).xcorr_metric(plane, coeffs,
                                             out=out, scratch=scratch)


def xcorr_metric_stacked(plane: np.ndarray, coeffs: StackedCoefficients,
                         backend: "str | KernelBackend | None" = None,
                         out: np.ndarray | None = None,
                         scratch=None) -> np.ndarray:
    """Per-bank squared metric over one shared sign plane: ``(..., K, n)``."""
    return get_backend(backend).xcorr_metric_stacked(plane, coeffs,
                                                     out=out,
                                                     scratch=scratch)


def _check_stacked_thresholds(thresholds: np.ndarray,
                              coeffs: StackedCoefficients) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if thresholds.shape != (coeffs.n_banks,):
        raise ConfigurationError(
            f"expected {coeffs.n_banks} per-bank thresholds, "
            f"got shape {thresholds.shape}"
        )
    return thresholds


def xcorr_detect_stacked(plane: np.ndarray, coeffs: StackedCoefficients,
                         thresholds: np.ndarray,
                         last: np.ndarray | None = None,
                         backend: "str | KernelBackend | None" = None,
                         scratch=None) -> StackedDetection:
    """The fused multi-standard datapath: one GEMM pass, K detectors.

    ``thresholds`` is ``(K,)`` (one per bank) and ``last`` the ``(K,)``
    per-bank trigger carry from the previous chunk.  Bank ``k``'s
    trigger/edges are byte-identical to :func:`xcorr_detect` run with
    bank ``k``'s own coefficients and threshold over the same stream.
    """
    thresholds = _check_stacked_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
    metric = xcorr_metric_stacked(plane, coeffs, backend=backend,
                                  scratch=scratch)
    trigger = metric > thresholds[:, None]
    edge_mask = rising_edge_plane(trigger, last)
    edges = tuple(np.flatnonzero(edge_mask[k])
                  for k in range(coeffs.n_banks))
    new_last = trigger[:, -1].copy() if trigger.shape[-1] \
        else np.asarray(last, dtype=bool).copy()
    return StackedDetection(metric=metric, trigger=trigger, edges=edges,
                            last=new_last)


def xcorr_detect_stacked_batch(blocks: np.ndarray, lengths: np.ndarray,
                               coeffs: StackedCoefficients,
                               thresholds: np.ndarray,
                               history: np.ndarray | None = None,
                               last: np.ndarray | None = None,
                               backend: "str | KernelBackend | None" = None
                               ) -> StackedBatchResult:
    """Chained batch rows through the stacked detector (``K`` banks).

    The row-stitching contract of :func:`xcorr_detect_batch` holds
    per bank: the ``(batch, K, width)`` planes equal what streaming
    :func:`xcorr_detect_stacked` produces over the concatenated rows,
    which in turn equals ``K`` independent single-bank streams.
    """
    thresholds = _check_stacked_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
    last = np.asarray(last, dtype=bool)
    blocks = np.asarray(blocks)
    lengths = np.asarray(lengths, dtype=np.int64)
    if blocks.ndim != 2 or lengths.shape != (blocks.shape[0],):
        raise StreamError("expected (batch, width) blocks with one "
                          "length per row")
    if np.any(lengths < 1) or np.any(lengths > blocks.shape[1]):
        raise StreamError("row lengths must be in [1, width]")
    batch, width = blocks.shape
    pairs = coeffs.history_pairs
    if history is None:
        history = np.zeros(2 * pairs, dtype=np.int8)

    plane = np.empty((batch, 2 * (pairs + width)), dtype=np.int8)
    sign_plane(blocks, out=plane[:, 2 * pairs:])
    plane[0, :2 * pairs] = history
    if batch > 1 and pairs:
        if np.all(lengths[:-1] >= pairs):
            cols = 2 * lengths[:-1, None] + np.arange(2 * pairs)[None, :]
            plane[1:, :2 * pairs] = np.take_along_axis(plane[:-1], cols,
                                                       axis=1)
        else:
            for b in range(1, batch):
                start = 2 * lengths[b - 1]
                plane[b, :2 * pairs] = \
                    plane[b - 1, start:start + 2 * pairs]

    metric = xcorr_metric_stacked(plane, coeffs, backend=backend)
    trigger = metric > thresholds[None, :, None]
    edge_plane = np.empty_like(trigger)
    for k in range(coeffs.n_banks):
        edge_plane[:, k, :] = chained_edges(
            np.ascontiguousarray(trigger[:, k, :]), lengths, bool(last[k]))

    tail_start = 2 * lengths[-1]
    return StackedBatchResult(
        metric=metric,
        trigger=trigger,
        edge_plane=edge_plane,
        history=plane[-1, tail_start:tail_start + 2 * pairs].copy(),
        last=trigger[-1, :, lengths[-1] - 1].copy(),
    )


def xcorr_detect(plane: np.ndarray, coeffs: XcorrCoefficients,
                 threshold: int, last: bool = False,
                 backend: "str | KernelBackend | None" = None,
                 scratch=None) -> XcorrDetection:
    """The fused streaming datapath: metric, trigger, and edges.

    One backend call replaces the seed's four correlation passes, and
    the threshold compare plus rising-edge extraction ride along so
    the DSP core consumes edge indices directly.
    """
    metric = xcorr_metric(plane, coeffs, backend=backend, scratch=scratch)
    trigger = metric > threshold
    edges = np.flatnonzero(rising_edge_plane(trigger, last))
    new_last = bool(trigger[-1]) if trigger.size else last
    return XcorrDetection(metric=metric, trigger=trigger, edges=edges,
                          last=new_last)


def xcorr_detect_batch(blocks: np.ndarray, lengths: np.ndarray,
                       coeffs: XcorrCoefficients, threshold: int,
                       history: np.ndarray | None = None,
                       last: bool = False,
                       backend: "str | KernelBackend | None" = None
                       ) -> XcorrBatchResult:
    """Run a batch of chained sample rows through the fused detector.

    ``blocks`` is ``(batch, width)`` complex with row ``b`` valid
    through ``lengths[b]`` (rows may be zero-padded to the common
    width).  Rows are *chained*: each row's sign history is stitched
    from the previous row's valid tail, so the result is byte-identical
    to feeding the rows one by one through the streaming facade —
    tests pin this.  ``history`` (``(2 * (taps - 1),)`` int8) and
    ``last`` seed the chain and come back updated in the result.
    """
    blocks = np.asarray(blocks)
    lengths = np.asarray(lengths, dtype=np.int64)
    if blocks.ndim != 2 or lengths.shape != (blocks.shape[0],):
        raise StreamError("expected (batch, width) blocks with one "
                          "length per row")
    if np.any(lengths < 1) or np.any(lengths > blocks.shape[1]):
        raise StreamError("row lengths must be in [1, width]")
    batch, width = blocks.shape
    pairs = coeffs.history_pairs
    if history is None:
        history = np.zeros(2 * pairs, dtype=np.int8)

    plane = np.empty((batch, 2 * (pairs + width)), dtype=np.int8)
    sign_plane(blocks, out=plane[:, 2 * pairs:])
    # Stitch each row's history from the previous row's valid tail:
    # the last 2*pairs entries of [history | row] live at plane
    # columns [2L, 2L + 2*pairs).  A row shorter than the history
    # depth reaches into its own stitched prefix, so the gather source
    # must already be final — fall back to a sequential stitch there.
    plane[0, :2 * pairs] = history
    if batch > 1 and pairs:
        if np.all(lengths[:-1] >= pairs):
            cols = 2 * lengths[:-1, None] + np.arange(2 * pairs)[None, :]
            plane[1:, :2 * pairs] = np.take_along_axis(plane[:-1], cols,
                                                       axis=1)
        else:
            for b in range(1, batch):
                start = 2 * lengths[b - 1]
                plane[b, :2 * pairs] = \
                    plane[b - 1, start:start + 2 * pairs]

    metric = xcorr_metric(plane, coeffs, backend=backend)
    trigger = metric > threshold
    edge_plane = chained_edges(trigger, lengths, last)

    tail_start = 2 * lengths[-1]
    return XcorrBatchResult(
        metric=metric,
        trigger=trigger,
        edge_plane=edge_plane,
        history=plane[-1, tail_start:tail_start + 2 * pairs].copy(),
        last=bool(trigger[-1, lengths[-1] - 1]),
    )
