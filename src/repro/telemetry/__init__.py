"""Sample-accurate tracing, metrics, and latency-budget observability.

The paper's headline claims are *timing* claims (§3.1, Fig. 5):
energy detection within 1.28 µs, cross-correlation in 2.56 µs, an
80 ns trigger-to-RF response.  This package is the instrumentation
layer that lets the reproduction measure those numbers on its own
data path instead of asserting them from constants:

* :mod:`repro.telemetry.timebase` — the dual-domain clock: every
  event carries a baseband sample index (25 MSPS) and nanoseconds,
  with the 100 MHz FPGA clock and host wall time as derived views.
* :mod:`repro.telemetry.tracer` — a bounded ring-buffer tracer with
  typed span/instant events, plus the zero-overhead null tracer that
  is the default everywhere.
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms behind a :class:`MetricsRegistry`.
* :mod:`repro.telemetry.session` — the :class:`Telemetry` bundle, whose
  ``attach`` wires the probe points and times the data-path stages
  (DDC, correlators, energy differentiator, DUC) as host spans and
  ``host.<stage>_ns`` histograms.
* :mod:`repro.telemetry.exporters` — JSONL, Chrome trace-event format
  (loadable in Perfetto / chrome://tracing), and a text summary.
* :mod:`repro.telemetry.budget` — the Fig. 5 checker: measured trace
  latencies compared against :func:`repro.core.timeline.timeline_for`.

Telemetry is **opt-in**.  Construct a :class:`Telemetry` bundle and
hand it to :class:`repro.core.jammer.ReactiveJammer` (or attach it to
a device/driver pair yourself); without one, every probe point sees
the null tracer and the hot path pays only a truthiness check per
chunk, never per sample.
"""

from __future__ import annotations

from repro.telemetry.exporters import (
    chrome_trace_events,
    events_to_jsonl,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.session import Telemetry
from repro.telemetry.timebase import Stamp, Timebase
from repro.telemetry.tracer import (
    NULL_TRACER,
    InstantEvent,
    NullTracer,
    RingTracer,
    SpanEvent,
    Tracer,
)

# The budget checker imports repro.core.timeline (and through it the
# hardware model), while the hardware model imports the tracer from
# this package — so the budget names resolve lazily (PEP 562) to keep
# `repro.hw` importable without a cycle.
_LAZY_BUDGET_NAMES = ("BudgetCheck", "BudgetReport", "LatencyBudget")


def __getattr__(name: str):
    if name in _LAZY_BUDGET_NAMES:
        from repro.telemetry import budget

        return getattr(budget, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetCheck",
    "BudgetReport",
    "LatencyBudget",
    "chrome_trace_events",
    "events_to_jsonl",
    "text_summary",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "Stamp",
    "Timebase",
    "NULL_TRACER",
    "InstantEvent",
    "NullTracer",
    "RingTracer",
    "SpanEvent",
    "Tracer",
]
