"""The Telemetry bundle: one object carrying a whole session's plumbing.

A :class:`Telemetry` instance groups the timebase, the tracer and the
metrics registry, and knows how to attach them to a device/driver
pair at the natural probe points.  Attaching is also the one place
that times the data-path stages on the host: each stage call becomes
a host span and a ``host.<stage>_ns`` observation.  This is what
user code passes to :class:`repro.core.jammer.ReactiveJammer` (or the
console) to opt in:

    >>> telemetry = Telemetry()
    >>> jammer = ReactiveJammer(telemetry=telemetry)
    >>> ...
    >>> telemetry.write_chrome_trace("run.trace.json")
    >>> print(telemetry.summary())

``Telemetry(enabled=False)`` builds the disabled bundle: the null
tracer and no stage timers, so its probe-point cost is a truthiness
check per chunk; the benchmark suite guards that this stays within
noise of running with no telemetry at all.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.exporters import (
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timebase import Timebase
from repro.telemetry.tracer import (
    CAT_HOST,
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
    """Tracer + metrics + timebase as one opt-in bundle."""

    def __init__(self, enabled: bool = True,
                 capacity: int = DEFAULT_CAPACITY,
                 timebase: Timebase | None = None) -> None:
        self.timebase = timebase if timebase is not None else Timebase()
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = RingTracer(self.timebase, capacity) \
            if enabled else NULL_TRACER

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
        windows and ``detect.which_protocol.*`` counters, the watchdog,
        the stage timers, and — when a driver is given — its
        register-write path.

        An enabled bundle times each data-path stage, named as the
        end-to-end benchmark's stage table names it, by setting a
        wrapper on the block instance: every call, one that raises
        included, emits one ``CAT_HOST`` host span carrying a
        ``samples`` arg and observes ``host.<stage>_ns``.  The wrapper
        calls the class's method, so attaching again replaces it
        rather than stacking a second timer.  A disabled bundle
        removes the wrappers and detaches the counters, since nothing
        reads its registry: the data path is then the plain one.
        """
        core = device.core
        core.tracer = self.tracer
        core.attach_metrics(self.metrics if self.enabled else None)
        for block, method, stage in (
                (device.ddc, "process", "hw.ddc"),
                (core.correlator, "detect", "hw.cross_correlator"),
                (core.energy, "detect", "hw.energy_differentiator"),
                (device.duc, "process", "hw.duc")):
            if self.enabled:
                setattr(block, method, self._timed(block, method, stage))
            else:
                # delattr, not vars(block): building the block's
                # instance dict slows every attribute read on it.
                with contextlib.suppress(AttributeError):
                    delattr(block, method)
        if core.watchdog is not None:
            core.watchdog.tracer = self.tracer
        if driver is not None:
            driver.tracer = self.tracer

    def _timed(self, block: object, method: str, stage: str):
        """``block.<method>`` from its class, timed as ``stage``."""
        unbound = getattr(type(block), method)
        clock = self.timebase.wall_clock_ns
        histogram = self.metrics.histogram(f"host.{stage}_ns")
        host_span = self.tracer.host_span

        @functools.wraps(unbound)
        def timed(samples, *args, **kwargs):
            start_ns = clock()
            try:
                return unbound(block, samples, *args, **kwargs)
            finally:
                end_ns = clock()
                histogram.observe(end_ns - start_ns)
                host_span(stage, CAT_HOST, start_ns, end_ns,
                          samples=int(np.size(samples)))

        return timed

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
