"""Former home of the K-bank correlator, kept only for a benchmark import.

:class:`repro.hw.cross_correlator.CrossCorrelator` serves 1..K banks.
``benchmarks/e2e/workloads.py`` still imports this module and, in
traced runs, wraps the two names below; nothing in ``src/`` calls
them through here.  The next change to that benchmark deletes this
module.
"""

from __future__ import annotations

from repro.kernels import sign_plane
from repro.kernels import xcorr_detect as xcorr_detect_stacked

__all__ = ["sign_plane", "xcorr_detect_stacked"]
