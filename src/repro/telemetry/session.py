"""The Telemetry bundle: one object carrying a whole session's plumbing.

A :class:`Telemetry` instance groups the timebase, the tracer, the
metrics registry, and the host profiler, and knows how to attach them
to a device/driver pair at the natural probe points.  This is what
user code passes to :class:`repro.core.jammer.ReactiveJammer` (or the
console) to opt in:

    >>> telemetry = Telemetry()
    >>> jammer = ReactiveJammer(telemetry=telemetry)
    >>> ...
    >>> telemetry.write_chrome_trace("run.trace.json")
    >>> print(telemetry.summary())

``Telemetry(enabled=False)`` builds the disabled bundle — null tracer,
no profiler — whose probe-point cost is a truthiness check per chunk;
the benchmark suite guards that this stays within noise of running
with no telemetry at all.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.telemetry.exporters import (
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import HostProfiler
from repro.telemetry.timebase import Timebase
from repro.telemetry.tracer import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    InstantEvent,
    RingTracer,
    SpanEvent,
    Tracer,
)

if TYPE_CHECKING:  # avoid the import cycle telemetry -> hw -> telemetry
    from repro.hw.uhd import UhdDriver
    from repro.hw.usrp import UsrpN210
    from repro.telemetry.budget import BudgetReport, LatencyBudget


class Telemetry:
    """Tracer + metrics + profiler + timebase as one opt-in bundle."""

    def __init__(self, enabled: bool = True,
                 capacity: int = DEFAULT_CAPACITY,
                 timebase: Timebase | None = None) -> None:
        self.timebase = timebase if timebase is not None else Timebase()
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = RingTracer(self.timebase, capacity) \
            if enabled else NULL_TRACER
        self.profiler: HostProfiler | None = HostProfiler(
            self.metrics, self.tracer, self.timebase) if enabled else None

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The null bundle: every probe point stays a no-op."""
        return cls(enabled=False)

    @property
    def enabled(self) -> bool:
        """Whether the bundle records anything at all."""
        return self.tracer.enabled

    # ------------------------------------------------------------------
    # Wiring

    def attach(self, device: "UsrpN210",
               driver: "UhdDriver | None" = None) -> None:
        """Wire this bundle into a device (and optionally its driver).

        Probe points covered: the DSP core's detectors / FSM / jam
        windows, the detector kernels' backend and throughput counters
        (``kernels.*``), the watchdog, the DDC/DUC host profiling
        scopes, and — when a driver is given — its register-write path.
        A disabled bundle detaches the counters, since nothing reads
        its registry: the data path then does no per-chunk metrics work.
        """
        device.core.tracer = self.tracer
        device.core.profiler = self.profiler
        device.profiler = self.profiler
        registry = self.metrics if self.enabled else None
        device.core.correlator.attach_metrics(registry)
        device.core.banked.attach_metrics(registry)
        device.core.attach_metrics(registry)
        device.core.energy.attach_metrics(registry)
        if device.core.watchdog is not None:
            device.core.watchdog.tracer = self.tracer
        if driver is not None:
            driver.tracer = self.tracer

    # ------------------------------------------------------------------
    # Views and exports

    def events(self) -> list[InstantEvent | SpanEvent]:
        """The retained trace events, oldest first."""
        return self.tracer.events()

    def summary(self) -> str:
        """The text digest of the trace and metrics."""
        dropped = getattr(self.tracer, "dropped", 0)
        return text_summary(self.events(), self.metrics, dropped=dropped)

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Export the trace in Chrome trace-event JSON."""
        return write_chrome_trace(self.events(), path)

    def write_jsonl(self, path: str | Path) -> Path:
        """Export the trace as newline-delimited JSON."""
        return write_jsonl(self.events(), path)

    def budget_report(self, signal_starts: list[int] | None = None,
                      budget: "LatencyBudget | None" = None) -> "BudgetReport":
        """Run the Fig. 5 latency-budget checker over the trace."""
        # Imported here: the budget checker pulls in the hardware model
        # (for the analytic timeline), which itself imports the tracer.
        from repro.telemetry.budget import LatencyBudget

        budget = budget if budget is not None else LatencyBudget()
        return budget.verify(self.events(), signal_starts=signal_starts)
