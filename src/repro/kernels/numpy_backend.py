"""The numpy reference backend: exact BLAS evaluation of the kernels.

This is the semantic ground truth every other backend must match
byte-for-byte.  The correlation metric is evaluated with the
block-Toeplitz two-GEMM scheme described in
:mod:`repro.kernels.xcorr`; the float dtype is chosen by
:func:`repro.kernels.xcorr.prepare_coefficients` so that every
intermediate is an exactly-representable integer, making the float
GEMM bit-identical to int64 arithmetic.

All large intermediates live in grow-only scratch buffers owned by
the backend instance: the temporaries here are hundreds of kilobytes,
which glibc serves via mmap and hands back to the kernel on free, so
naive per-call allocation pays the zero-page fault cost on every
single chunk.  Only the returned metric array is freshly allocated.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dispatch import KernelBackend
from repro.runtime.buffers import ScratchBuffer


class NumpyKernelBackend(KernelBackend):
    """Reference implementations of the dispatchable primitives."""

    name = "numpy"

    def __init__(self) -> None:
        self._scratch: dict[tuple[str, np.dtype], ScratchBuffer] = {}

    def _view(self, tag: str, dtype: np.dtype, n: int) -> np.ndarray:
        key = (tag, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = ScratchBuffer(dtype)
        return buf.view(n)

    def xcorr_metric(self, plane: np.ndarray, coeffs,
                     out: np.ndarray | None = None,
                     scratch=None) -> np.ndarray:
        plane = np.asarray(plane)
        lead = plane.shape[:-1]
        length = plane.shape[-1]
        pairs = length // 2
        n = pairs - coeffs.history_pairs
        two_s = 2 * coeffs.block
        n_blocks = -(-pairs // coeffs.block)
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        padded_len = (n_blocks + 1) * two_s
        dtype = coeffs.gemm_dtype

        # Copy the plane into block-aligned zero-padded float storage
        # (the caller's scratch when its dtype matches); windows that
        # start in the zero padding produce garbage rows sliced away
        # below, never junk data read.
        if scratch is not None and scratch.dtype == dtype:
            flat = scratch.view(rows * padded_len)
        else:
            flat = self._view("padded", dtype, rows * padded_len)
        padded = flat.reshape(rows, padded_len)
        padded[:, :length] = plane.reshape(rows, length)
        padded[:, length:] = 0

        # Window g of the flat padded buffer is (row g // (n_blocks+1),
        # block g % (n_blocks+1)): X0 is the buffer itself and X1 the
        # same buffer offset by one block, so both GEMM operands are
        # contiguous views — no window gather/copy at all.  The extra
        # per-row window (j == n_blocks, whose X1 operand crosses into
        # the next row) lands at columns >= n_blocks*block and is
        # sliced away with the zero-padding garbage below.
        m = rows * (n_blocks + 1)
        x0 = flat.reshape(m, two_s)
        x1 = flat[two_s:m * two_s].reshape(m - 1, two_s)
        gemm = self._view("gemm0", dtype, m * two_s).reshape(m, two_s)
        gemm_b = self._view("gemm1", dtype, m * two_s).reshape(m, two_s)
        np.matmul(x0, coeffs.a_matrix, out=gemm)
        np.matmul(x1, coeffs.b_matrix, out=gemm_b[:m - 1])
        gemm_b[m - 1:] = 0
        gemm += gemm_b
        corr = gemm.reshape(rows, (n_blocks + 1) * coeffs.block, 2)
        corr_re = corr[:, :n, 0]
        corr_im = corr[:, :n, 1]

        sq_re = self._view("sq_re", dtype, rows * n).reshape(rows, n)
        sq_im = self._view("sq_im", dtype, rows * n).reshape(rows, n)
        np.multiply(corr_re, corr_re, out=sq_re)
        np.multiply(corr_im, corr_im, out=sq_im)
        if out is None:
            out = np.empty(lead + (n,), dtype=np.int64)
        np.add(sq_re, sq_im, out=out.reshape(rows, n), casting="unsafe")
        return out

    def xcorr_metric_stacked(self, plane: np.ndarray, coeffs,
                             out: np.ndarray | None = None,
                             scratch=None) -> np.ndarray:
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

        # The same zero-padded float copy of the plane as xcorr_metric
        # (the caller's scratch when its dtype matches).
        if scratch is not None and scratch.dtype == dtype:
            flat = scratch.view(rows * padded_len)
        else:
            flat = self._view("padded", dtype, rows * padded_len)
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
        windows = self._view("windows", dtype, m * span).reshape(m, span)
        np.copyto(windows.reshape(rows, per_row, span), spans)
        width = 2 * k * s
        gemm = self._view("gemm0", dtype, m * width).reshape(m, width)
        np.matmul(windows, coeffs.band, out=gemm)

        # Columns are (component, bank, window): square in place, add
        # the components, then one cast-and-transpose into the (bank,
        # sample) layout; the last row's windows past n are padding.
        np.square(gemm, out=gemm)
        corr = gemm.reshape(m, 2, k * s)
        summed = self._view("stacked_sum", dtype, m * k * s)
        np.add(corr[:, 0], corr[:, 1], out=summed.reshape(m, k * s))
        full = np.empty((rows, k, per_row, s), dtype=np.int64)
        np.copyto(full, summed.reshape(rows, per_row, k, s)
                  .transpose(0, 2, 1, 3), casting="unsafe")
        metric = full.reshape(lead + (k, per_row * s))[..., :n]
        if out is None:
            return metric
        np.copyto(out, metric)
        return out

    def moving_sums(self, padded: np.ndarray, window: int,
                    out: np.ndarray | None = None,
                    csum_scratch=None) -> np.ndarray:
        padded = np.asarray(padded, dtype=np.float64)
        lead = padded.shape[:-1]
        length = padded.shape[-1]
        n = length - window
        rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
        flat = padded.reshape(rows, length)
        if csum_scratch is not None \
                and csum_scratch.dtype == np.dtype(np.float64):
            csum = csum_scratch.view(rows * length).reshape(rows, length)
        else:
            csum = self._view("csum", np.float64,
                              rows * length).reshape(rows, length)
        np.cumsum(flat, axis=-1, out=csum)
        if out is None:
            out = np.empty(lead + (n,), dtype=np.float64)
        np.subtract(csum[:, window:], csum[:, :-window],
                    out=out.reshape(rows, n))
        return out
