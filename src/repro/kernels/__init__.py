"""repro.kernels: fused and batched DSP kernels.

The bit-exact compute layer under the detector facades:

* :mod:`repro.kernels.xcorr` — the sign-bit cross-correlator over
  1..K coefficient banks as one windowed GEMM on an interleaved sign
  plane, comparing in the GEMM dtype against clamped thresholds
  (one trigger kernel for a stream chunk or a batch of Fig. 6/7 rows),
  plus the one rising-edge helper every trigger plane goes through;
* :mod:`repro.kernels.energy` — the exact energy and moving-sum
  kernels of the streaming energy differentiator;
* :mod:`repro.kernels.ops` — the choke point for the remaining raw
  convolution call sites (see repro-lint RJ009).

The facades in :mod:`repro.hw` stay the stateful streaming API while
all per-sample math lives here.  The DSP core stacks the facades'
trigger rows into one plane and takes its edges with
:func:`edge_mask` once per chunk.
"""

from __future__ import annotations

from repro.kernels.energy import (
    EXACT_SUM_LENGTH,
    energies,
    moving_sums,
)
from repro.kernels.xcorr import (
    StackedCoefficients,
    clamped_thresholds,
    edge_mask,
    metric_ceiling,
    prepare_coefficients,
    sign_plane,
    xcorr_detect,
    xcorr_metric,
)

__all__ = [
    "EXACT_SUM_LENGTH",
    "StackedCoefficients",
    "clamped_thresholds",
    "edge_mask",
    "energies",
    "metric_ceiling",
    "moving_sums",
    "prepare_coefficients",
    "sign_plane",
    "xcorr_detect",
    "xcorr_metric",
]
