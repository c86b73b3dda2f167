"""repro.kernels: fused and batched DSP kernels.

The bit-exact compute layer under the detector facades:

* :mod:`repro.kernels.xcorr` — the sign-bit cross-correlator over
  1..K coefficient banks as one windowed GEMM on an interleaved sign
  plane (fused metric + trigger + edge extraction, streaming and
  chained-batch forms);
* :mod:`repro.kernels.energy` — the moving-sum energy differentiator
  with exact float tail stitching for batched rows;
* :mod:`repro.kernels.ops` — the choke point for the remaining raw
  convolution call sites (see repro-lint RJ009).

The facades in :mod:`repro.hw` stay the stateful streaming API while
all per-sample math lives here.
"""

from __future__ import annotations

from repro.kernels.energy import (
    EnergyBatchResult,
    energy_detect_batch,
    moving_sums,
)
from repro.kernels.xcorr import (
    StackedBatchResult,
    StackedCoefficients,
    StackedDetection,
    chained_edges,
    metric_ceiling,
    prepare_coefficients,
    rising_edge_plane,
    sign_plane,
    xcorr_detect,
    xcorr_detect_batch,
    xcorr_metric,
)

__all__ = [
    "EnergyBatchResult",
    "StackedBatchResult",
    "StackedCoefficients",
    "StackedDetection",
    "chained_edges",
    "energy_detect_batch",
    "metric_ceiling",
    "moving_sums",
    "prepare_coefficients",
    "rising_edge_plane",
    "sign_plane",
    "xcorr_detect",
    "xcorr_detect_batch",
    "xcorr_metric",
]
