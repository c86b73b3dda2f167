"""Energy-differentiator kernels (paper Fig. 4).

The streaming block is a length-``window`` moving energy sum compared
against its own value ``delay`` samples earlier;
:class:`repro.hw.EnergyDifferentiator` keeps that state and runs these
kernels on each chunk.

**Exact for IQ16 input.**  Each energy is ``I*I + Q*Q``.  On IQ16
samples, what the DDC delivers and the stream path sees, I and Q are
multiples of 2**-15 in [-1, 1), so every energy is a multiple of
2**-30 no larger than 2 and is exact in float64, as the paper's
fixed-point block (Fig. 4) is.  The moving sum is a float64
cumulative-sum difference over ``[window-sample tail | energies]``;
while that has at most :data:`EXACT_SUM_LENGTH` (2**22) entries, that
is ``window + n <= 2**22`` for ``n`` samples, every partial sum is a
multiple of 2**-30 no larger than 2**23, so it is exact too, and no
sum depends on where its chunk started.  Longer sums round, as any
float sum does, so the facade runs a longer chunk in pieces that stay
within the bound.
"""

from __future__ import annotations

import numpy as np

#: Most entries one float64 cumulative sum of IQ16 energies holds
#: exactly, the window-sample tail included.
EXACT_SUM_LENGTH = 1 << 22


def energies(samples: np.ndarray, out: np.ndarray,
             scratch: np.ndarray) -> np.ndarray:
    """Instantaneous energy ``I*I + Q*Q`` of complex samples, into ``out``.

    ``out`` is float64 with the samples' shape (the facade passes the
    energy columns of its ``[tail | energies]`` plane); ``scratch``, of
    the same shape, holds the ``Q*Q`` term.  Exact for IQ16 samples
    (see the module docstring).

    Squaring the samples' interleaved float64 view once and adding its
    pairs gives the same bits, but its add reads both operands at a
    stride: faster at 1024-sample chunks, slower at 8192 (see
    ``docs/performance.md``).
    """
    np.square(samples.real, out=out)
    np.square(samples.imag, out=scratch)
    out += scratch
    return out


def moving_sums(padded: np.ndarray, window: int,
                out: np.ndarray) -> np.ndarray:
    """Length-``window`` moving sums along the last axis, into ``out``.

    Each row of ``padded`` is ``[tail | energies]`` float64 and holds
    its cumulative sums afterwards; the ``(..., n)`` sums are their
    sequential difference, so every row shape gives bit-identical sums.
    A call is two numpy passes.
    """
    np.add.accumulate(padded, axis=-1, out=padded)
    return np.subtract(padded[..., window:], padded[..., :-window], out=out)
