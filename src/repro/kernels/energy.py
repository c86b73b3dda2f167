"""Batched energy-differentiator kernels (paper Fig. 4).

The streaming block is a length-``window`` moving energy sum compared
against its own value ``delay`` samples earlier.

**Exact for IQ16 input.**  Each energy is ``I*I + Q*Q``.  On IQ16
samples, what the DDC delivers and the stream path sees, I and Q are
multiples of 2**-15 in [-1, 1), so every energy is a multiple of
2**-30 no larger than 2 and is exact in float64, as the paper's
fixed-point block (Fig. 4) is.  The moving sum is a float64
cumulative-sum difference over ``[window-sample tail | energies]``;
while that has at most :data:`EXACT_SUM_LENGTH` (2**22) entries, that
is ``window + n <= 2**22`` for ``n`` samples, every partial sum is a
multiple of 2**-30 no larger than 2**23, so it is exact too, and no
sum depends on where its chunk (or batch row) started.  Longer sums
round, as any float sum does, so the streaming facade runs a longer
chunk in pieces that stay within the bound; the batch kernel's rows
(``window + width`` entries) are far inside it.

A batched row still needs the stream's state, so the chained kernel
stitches two per-row carries:

* the last ``window`` energies of the previous row (moving-sum warmup);
* the last ``delay`` sums of the previous row (the Z^-64 delay line).

Rows shorter than a tail reach into their own stitched prefix, which
makes the gather order-dependent; that rare shape falls back to a
sequential stitch, keeping the identity guarantee unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError
from repro.kernels.xcorr import chained_edges
from repro.runtime.buffers import ScratchBuffer

#: Most entries one float64 cumulative sum of IQ16 energies holds
#: exactly, the window-sample tail included.
EXACT_SUM_LENGTH = 1 << 22

#: Grow-only cumulative-sum storage for the batch kernel.
_CSUM = ScratchBuffer(np.float64)


def energies(samples: np.ndarray, out: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """Instantaneous energy ``I*I + Q*Q`` of complex samples, into ``out``.

    ``out`` is float64 with the samples' shape (it may be a strided
    view, e.g. the payload columns of ``[tail | payload]`` rows);
    ``scratch``, of the same shape, holds the ``Q*Q`` term.  Exact for
    IQ16 samples (see the module docstring).

    Squaring the samples' interleaved float64 view once and adding its
    pairs gives the same bits, but its add reads both operands at a
    stride: faster at 1024-sample chunks, slower at 8192 (see
    ``docs/performance.md``).
    """
    np.square(samples.real, out=out)
    np.square(samples.imag, out=scratch)
    out += scratch
    return out


def moving_sums(padded: np.ndarray, window: int, out: np.ndarray,
                csum: np.ndarray) -> np.ndarray:
    """Length-``window`` moving sums along the last axis, into ``out``.

    Each row of ``padded`` is ``[tail | energies]`` float64; the
    ``(..., n)`` sums are the sequential cumulative-sum difference, so
    streaming and batched shapes give bit-identical sums.  ``csum`` is
    scratch shaped like ``padded``, or ``padded`` itself, which then
    holds the cumulative sums afterwards; a call is two numpy passes.
    """
    np.add.accumulate(padded, axis=-1, out=csum)
    return np.subtract(csum[..., window:], csum[..., :-window], out=out)


@dataclass(frozen=True)
class EnergyBatchResult:
    """Chained batch result of the energy differentiator.

    ``trigger_high``/``trigger_low`` are raw ``(batch, width)`` planes
    (columns past a row's length are meaningless); the edge planes are
    masked to valid columns.  ``energy_tail``/``sum_tail`` and the two
    ``last`` bits are the carry-out stream state.
    """

    trigger_high: np.ndarray
    trigger_low: np.ndarray
    edge_high: np.ndarray
    edge_low: np.ndarray
    energy_tail: np.ndarray
    sum_tail: np.ndarray
    last_high: bool
    last_low: bool


def _stitch_tails(full: np.ndarray, lengths: np.ndarray,
                  init_tail: np.ndarray, tail_len: int) -> None:
    """Fill ``full[:, :tail_len]`` with each previous row's valid tail.

    ``full`` rows are ``[tail | payload]``; the last ``tail_len``
    valid entries of row ``b - 1`` start at column ``lengths[b - 1]``.
    """
    batch = full.shape[0]
    full[0, :tail_len] = init_tail
    if batch == 1 or tail_len == 0:
        return
    if np.all(lengths[:-1] >= tail_len):
        if np.all(lengths[1:-1] == lengths[0]):
            # Equal rows: every tail starts at one column, one slice.
            start = lengths[0]
            full[1:, :tail_len] = full[:-1, start:start + tail_len]
        else:
            cols = lengths[:-1, None] + np.arange(tail_len)[None, :]
            full[1:, :tail_len] = np.take_along_axis(full[:-1], cols,
                                                     axis=1)
    else:
        for b in range(1, batch):
            start = lengths[b - 1]
            full[b, :tail_len] = full[b - 1, start:start + tail_len]


def energy_detect_batch(blocks: np.ndarray, lengths: np.ndarray,
                        window: int, delay: int,
                        threshold_high: float, threshold_low: float,
                        energy_tail: np.ndarray | None = None,
                        sum_tail: np.ndarray | None = None,
                        last_high: bool = False, last_low: bool = False
                        ) -> EnergyBatchResult:
    """Run a batch of chained sample rows through the energy detector.

    Same contract as :func:`repro.kernels.xcorr_detect_batch`:
    ``blocks`` is ``(batch, width)`` complex with per-row valid
    ``lengths``, rows are chained through the stitched tails, and the
    result is byte-identical to the streaming facade fed row by row.
    ``threshold_high``/``threshold_low`` are the *linear* ratios.
    """
    blocks = np.asarray(blocks)
    lengths = np.asarray(lengths, dtype=np.int64)
    if blocks.ndim != 2 or lengths.shape != (blocks.shape[0],):
        raise StreamError("expected (batch, width) blocks with one "
                          "length per row")
    if np.any(lengths < 1) or np.any(lengths > blocks.shape[1]):
        raise StreamError("row lengths must be in [1, width]")
    batch, width = blocks.shape

    # Zero padding has zero energy, and every padded-column value is
    # sliced off or masked before it can reach a carried tail.
    padded = np.empty((batch, window + width), dtype=np.float64)
    csum = _CSUM.view(padded.size).reshape(padded.shape)
    # The Q*Q term parks in the cumsum scratch the sums overwrite next.
    energies(np.asarray(blocks, dtype=np.complex128), padded[:, window:],
             scratch=csum[:, window:])
    if energy_tail is None:
        energy_tail = np.zeros(window, dtype=np.float64)
    _stitch_tails(padded, lengths, energy_tail, window)

    # The sums land in the delay line right behind its stitched tail.
    delayed_full = np.empty((batch, delay + width), dtype=np.float64)
    sums = moving_sums(padded, window, delayed_full[:, delay:], csum)
    if sum_tail is None:
        sum_tail = np.zeros(delay, dtype=np.float64)
    _stitch_tails(delayed_full, lengths, sum_tail, delay)
    delayed = delayed_full[:, :width]

    trigger_high = sums > delayed * threshold_high
    trigger_low = sums * threshold_low < delayed

    tail_start = int(lengths[-1])
    return EnergyBatchResult(
        trigger_high=trigger_high,
        trigger_low=trigger_low,
        edge_high=chained_edges(trigger_high, lengths, last_high),
        edge_low=chained_edges(trigger_low, lengths, last_low),
        energy_tail=padded[-1, tail_start:tail_start + window].copy(),
        sum_tail=delayed_full[-1, tail_start:tail_start + delay].copy(),
        last_high=bool(trigger_high[-1, lengths[-1] - 1]),
        last_low=bool(trigger_low[-1, lengths[-1] - 1]),
    )
