"""Fused, batched sign-bit cross-correlation kernels.

The paper's correlator (Fig. 3) is one fixed-point pipeline: slice
each I/Q pair to its sign bit, correlate against 64 3-bit complex
coefficients, square, compare, trigger.  The seed software model spent
four separate ``np.correlate`` passes per chunk on this; here the
whole datapath is one GEMM, for one coefficient bank or for ``K``.

**Layout.**  A chunk becomes an *interleaved sign plane*:
``plane[2m] = sign(I[m])``, ``plane[2m+1] = sign(Q[m])``, prefixed by
the ``2 * (taps - 1)`` entries of carried history (zeros after reset,
matching the hardware).  With the coefficient matrix ``C`` of shape
``(2T, 2K)``, bank ``k`` in columns ``2k`` and ``2k + 1``::

    C[2i, 2k] = cI[i]   C[2i+1, 2k] = cQ[i]        # -> corr_re
    C[2i, 2k+1] = -cQ[i]  C[2i+1, 2k+1] = cI[i]    # -> corr_im

the window starting at pair ``t`` satisfies
``(corr_re[t], corr_im[t]) = plane[2t : 2t + 2T] @ C[:, 2k:2k + 2]``
for every bank at once.

**One windowed GEMM.**  Each GEMM row holds the ``S + T - 1`` pairs
read by ``S`` consecutive windows (a strided gather of the plane), and
one GEMM against a ``(2(S + T - 1), 2K * S)`` band evaluates all ``S``
windows of every bank.  ``S`` comes from ``K``: 32 windows for one
bank, 16 for several, the faster choice measured for each (see
docs/performance.md).

**Banks.**  Banks are zero-padded *at the front* to the longest bank's
length.  A padded window's extra leading coefficients are zero, so
bank ``k``'s metric row is byte-identical to that bank run alone —
whatever the longer shared history holds.

**Exactness.**  Every partial sum is an integer bounded by
``sum(|cI| + |cQ|)`` and the metric by twice its square; when that
fits float32's 2**24 integer window (it does for 3-bit banks: bound
512, metric 524288) the GEMM is performed in float32 and is *exact* —
every intermediate is an exactly-representable integer regardless of
summation order.  Larger banks fall back to float64 (exact through
2**53).  The result is bit-identical to the int64 reference, which the
parity tests enforce property-style.

The large intermediates live in grow-only module scratch buffers: they
are hundreds of kilobytes, which glibc serves via mmap and hands back
on free, so per-call allocation would pay the zero-page fault cost on
every chunk.  Only the returned metric is freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, StreamError
from repro.runtime.buffers import ScratchBuffer
from repro.runtime.cache import cached_artifact

#: Largest integer float32 runs an exact accumulation over.
_F32_EXACT_LIMIT = 1 << 24

#: Int8 scalars for the in-place 0/1 -> +1/-1 sign mapping.
_SIGN_SCALE = np.int8(-2)
_SIGN_POS = np.int8(1)

_SCRATCH: dict[tuple[str, np.dtype], ScratchBuffer] = {}


def _scratch(tag: str, dtype: np.dtype, n: int) -> np.ndarray:
    key = (tag, dtype)
    buf = _SCRATCH.get(key)
    if buf is None:
        buf = _SCRATCH[key] = ScratchBuffer(dtype)
    return buf.view(n)


def _windows_per_row(n_banks: int) -> int:
    """Windows per GEMM row ``S``: 32 for one bank, 16 for several."""
    return 32 if n_banks == 1 else 16


def metric_ceiling(coeffs_i: np.ndarray, coeffs_q: np.ndarray) -> int:
    """Upper bound of a bank's metric: ``2 * (sum|cI| + sum|cQ|)**2``.

    Each sign-bit product contributes at most ``|cI| + |cQ|`` to
    ``|Re|`` and to ``|Im|``, so neither exceeds the sum over taps.
    """
    bound = int(np.abs(coeffs_i).sum() + np.abs(coeffs_q).sum())
    return 2 * bound * bound


@dataclass(frozen=True)
class StackedCoefficients:
    """``K`` coefficient banks prepared for the one windowed GEMM.

    Attributes:
        taps: Padded common template length ``T`` (= max bank length).
        n_banks: Number of stacked banks ``K``.
        bank_taps: Original (pre-padding) length of each bank.
        ceilings: Each bank's :func:`metric_ceiling`.
        stacked: ``(2T, 2K)`` int64 coefficient matrix (the ``C`` of
            the module docstring).
        gemm_dtype: float32 when *every* bank satisfies the exactness
            bound, else float64 (both are exact; see module docstring).
        block: Windows per GEMM row ``S``.
        band: ``(2(S + T - 1), 2K * S)`` band, ``gemm_dtype``, with
            flattened column index ``(c * K + k) * S + j`` for
            component ``c`` of bank ``k`` in window ``j``.
    """

    taps: int
    n_banks: int
    bank_taps: tuple[int, ...]
    ceilings: tuple[int, ...]
    stacked: np.ndarray
    gemm_dtype: np.dtype
    block: int
    band: np.ndarray

    @property
    def history_pairs(self) -> int:
        """Sign pairs of history a stream must carry: ``taps - 1``."""
        return self.taps - 1


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _normalize_banks(banks) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Validate and canonicalize a bank list for the artifact cache.

    Lists and tuples tokenize differently in the cache key, so every
    entry point funnels through this one canonical
    tuple-of-(int64, int64) form before the memoized builder runs.
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
        raise ConfigurationError("a correlator needs at least one bank")
    return tuple(normalized)


@cached_artifact
def _prepare(banks) -> StackedCoefficients:
    taps = max(coeffs_i.size for coeffs_i, _ in banks)
    n_banks = len(banks)
    bank_taps = tuple(coeffs_i.size for coeffs_i, _ in banks)

    stacked = np.zeros((2 * taps, 2 * n_banks), dtype=np.int64)
    for k, (coeffs_i, coeffs_q) in enumerate(banks):
        pad = taps - coeffs_i.size
        padded_i = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_i])
        padded_q = np.concatenate([np.zeros(pad, dtype=np.int64), coeffs_q])
        stacked[0::2, 2 * k] = padded_i
        stacked[1::2, 2 * k] = padded_q
        stacked[0::2, 2 * k + 1] = -padded_q
        stacked[1::2, 2 * k + 1] = padded_i

    # One dtype serves every bank, so the exactness bound is the worst
    # bank's metric ceiling.  Either dtype is exact within its bound,
    # so the int64 metric is identical whichever is picked.
    ceilings = tuple(metric_ceiling(ci, cq) for ci, cq in banks)
    exact_in_f32 = max(ceilings) < _F32_EXACT_LIMIT
    gemm_dtype = np.dtype(np.float32 if exact_in_f32 else np.float64)

    block = _windows_per_row(n_banks)
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
        ceilings=ceilings,
        stacked=_freeze(stacked),
        gemm_dtype=gemm_dtype,
        block=block,
        band=_freeze(band.reshape(span, 2 * n_banks * block)
                     .astype(gemm_dtype)),
    )


def prepare_coefficients(banks) -> StackedCoefficients:
    """Pad and stack ``K`` coefficient banks into one GEMM operand.

    ``banks`` is a sequence of ``(coeffs_i, coeffs_q)`` pairs; banks
    may have different lengths (each is front-padded with zeros to the
    longest).  Memoized through the artifact cache
    (:mod:`repro.runtime.cache`) on the bank contents, so sweeps and
    repeated facade loads share one frozen instance.
    """
    return _prepare(_normalize_banks(banks))


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
    or one bool per row of a 2-D plane).
    """
    edges = np.empty_like(trigger)
    edges[..., 1:] = trigger[..., 1:] & ~trigger[..., :-1]
    edges[..., 0] = trigger[..., 0] & ~np.asarray(previous_last)
    return edges


def chained_edges(trigger: np.ndarray, lengths: np.ndarray,
                  last=False) -> np.ndarray:
    """Rising edges over batch rows chained as one stream.

    ``trigger`` is ``(batch, ..., width)``.  Row ``b``'s predecessor
    for column 0 is the last *valid* trigger of row ``b - 1`` (``last``
    for row 0, broadcast over the middle axes), exactly as if the rows
    had been fed through a streaming detector back to back.  Columns at
    or beyond each row's valid length are masked off.
    """
    batch, width = trigger.shape[0], trigger.shape[-1]
    previous = np.empty_like(trigger)
    previous[..., 1:] = trigger[..., :-1]
    previous[0, ..., 0] = last
    if batch > 1:
        previous[1:, ..., 0] = trigger[np.arange(batch - 1), ...,
                                       lengths[:-1] - 1]
    edges = trigger & ~previous
    row_lengths = lengths.reshape((batch,) + (1,) * (trigger.ndim - 1))
    edges &= np.arange(width) < row_lengths
    return edges


@dataclass(frozen=True)
class StackedDetection:
    """Fused single-stream detection result over ``K`` banks.

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
    """Chained batch detection result over ``K`` banks.

    ``metric``/``trigger``/``edge_plane`` are ``(batch, K, width)``;
    columns past a row's length are meaningless in ``trigger`` and
    already masked in ``edge_plane``.  ``history`` (shared across
    banks) and ``last`` (``(K,)`` bools) are the carry-out stream
    state, ready to seed the next :func:`xcorr_detect_batch` call.
    """

    metric: np.ndarray
    trigger: np.ndarray
    edge_plane: np.ndarray
    history: np.ndarray
    last: np.ndarray


def xcorr_metric(plane: np.ndarray, coeffs: StackedCoefficients,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Per-bank squared metric over one shared sign plane.

    ``plane`` is ``(..., 2 * (history + n))`` int8 with I/Q signs
    interleaved, its leading ``2 * (coeffs.taps - 1)`` entries the
    carried history.  Returns ``(..., K, n)`` int64.
    """
    plane = np.asarray(plane)
    lead = plane.shape[:-1]
    length = plane.shape[-1]
    n = length // 2 - coeffs.history_pairs
    k = coeffs.n_banks
    s = coeffs.block
    span = coeffs.band.shape[0]
    per_row = -(-n // s)  # GEMM rows per plane row
    rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
    padded_len = 2 * (coeffs.history_pairs + s * per_row)
    dtype = coeffs.gemm_dtype

    # Copy the plane into zero-padded float storage; windows that start
    # in the padding produce garbage columns sliced away below.
    flat = _scratch("padded", dtype, rows * padded_len)
    padded = flat.reshape(rows, padded_len)
    padded[:, :length] = plane.reshape(rows, length)
    padded[:, length:] = 0

    # GEMM row q gathers the span read by windows q*S .. q*S+S-1
    # (overlapping strided rows of the padded plane); one GEMM then
    # evaluates all K banks on the shared plane.
    m = rows * per_row
    size = flat.itemsize
    spans = np.ndarray((rows, per_row, span), dtype=dtype, buffer=flat,
                       strides=(padded_len * size, 2 * s * size, size))
    windows = _scratch("windows", dtype, m * span).reshape(m, span)
    np.copyto(windows.reshape(rows, per_row, span), spans)
    width = 2 * k * s
    gemm = _scratch("gemm", dtype, m * width).reshape(m, width)
    np.matmul(windows, coeffs.band, out=gemm)

    # Columns are (component, bank, window): square in place, add
    # the components, then one cast-and-transpose into the (bank,
    # sample) layout; the last row's windows past n are padding.
    np.square(gemm, out=gemm)
    corr = gemm.reshape(m, 2, k * s)
    summed = _scratch("summed", dtype, m * k * s)
    np.add(corr[:, 0], corr[:, 1], out=summed.reshape(m, k * s))
    full = np.empty((rows, k, per_row, s), dtype=np.int64)
    np.copyto(full, summed.reshape(rows, per_row, k, s)
              .transpose(0, 2, 1, 3), casting="unsafe")
    metric = full.reshape(lead + (k, per_row * s))[..., :n]
    if out is None:
        return metric
    np.copyto(out, metric)
    return out


def _check_thresholds(thresholds: np.ndarray,
                      coeffs: StackedCoefficients) -> np.ndarray:
    thresholds = np.asarray(thresholds, dtype=np.int64)
    if thresholds.shape != (coeffs.n_banks,):
        raise ConfigurationError(
            f"expected {coeffs.n_banks} per-bank thresholds, "
            f"got shape {thresholds.shape}"
        )
    return thresholds


def xcorr_detect(plane: np.ndarray, coeffs: StackedCoefficients,
                 thresholds: np.ndarray,
                 last: np.ndarray | None = None) -> StackedDetection:
    """The fused streaming datapath: metric, trigger and edges per bank.

    One GEMM replaces the seed's four correlation passes, and the
    threshold compare plus rising-edge extraction ride along so the
    DSP core consumes edge indices directly.  ``thresholds`` is
    ``(K,)`` (one per bank) and ``last`` the ``(K,)`` per-bank trigger
    carry from the previous chunk.
    """
    thresholds = _check_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
    metric = xcorr_metric(plane, coeffs)
    trigger = metric > thresholds[:, None]
    edge_mask = rising_edge_plane(trigger, last)
    edges = tuple(np.flatnonzero(row) for row in edge_mask)
    new_last = trigger[:, -1].copy() if trigger.shape[-1] \
        else np.asarray(last, dtype=bool).copy()
    return StackedDetection(metric=metric, trigger=trigger, edges=edges,
                            last=new_last)


def xcorr_detect_batch(blocks: np.ndarray, lengths: np.ndarray,
                       coeffs: StackedCoefficients,
                       thresholds: np.ndarray,
                       history: np.ndarray | None = None,
                       last: np.ndarray | None = None
                       ) -> StackedBatchResult:
    """Run a batch of chained sample rows through the fused detector.

    ``blocks`` is ``(batch, width)`` complex with row ``b`` valid
    through ``lengths[b]`` (rows may be zero-padded to the common
    width).  Rows are *chained*: each row's sign history is stitched
    from the previous row's valid tail, so the ``(batch, K, width)``
    planes are byte-identical to feeding the rows one by one through
    :func:`xcorr_detect` — tests pin this.  ``history``
    (``(2 * (taps - 1),)`` int8) and ``last`` (``(K,)``) seed the chain
    and come back updated in the result.
    """
    thresholds = _check_thresholds(thresholds, coeffs)
    if last is None:
        last = np.zeros(coeffs.n_banks, dtype=bool)
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

    metric = xcorr_metric(plane, coeffs)
    trigger = metric > thresholds[None, :, None]
    tail_start = 2 * lengths[-1]
    return StackedBatchResult(
        metric=metric,
        trigger=trigger,
        edge_plane=chained_edges(trigger, lengths, last),
        history=plane[-1, tail_start:tail_start + 2 * pairs].copy(),
        last=trigger[-1, :, lengths[-1] - 1].copy(),
    )
