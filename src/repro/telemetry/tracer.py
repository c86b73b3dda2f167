"""Typed trace events and the bounded ring-buffer tracer.

Two event shapes cover every probe point in the framework:

* :class:`InstantEvent` — something happened at one instant (a
  detector fired, a register write landed, the watchdog tripped);
* :class:`SpanEvent` — something occupied an interval (a jam burst on
  the sample timeline, one host-timed call of a data-path stage).

Events carry time in **both** domains (see
:mod:`repro.telemetry.timebase`): ``sample``/``start_sample`` index
the deterministic sample clock (``-1`` for host-only events, which
have no sample-domain meaning), and ``ns``/``start_ns`` give
nanoseconds — sample-clock ns for data-path events, host wall-clock
ns for host-timed stages (``host`` is True for the latter).

The default tracer everywhere is :data:`NULL_TRACER`: disabled,
allocation-free, and safe to call unconditionally.  Probe points on
per-sample-scaling paths additionally guard with ``tracer.enabled``
so a disabled tracer costs one attribute read per *chunk*, not per
event.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.timebase import Timebase

#: Default ring capacity: enough for every event of a multi-millisecond
#: run while bounding memory under sustained load.
DEFAULT_CAPACITY = 65_536

# Event categories used by the built-in probe points.
CAT_DETECTOR = "detector"
CAT_FSM = "fsm"
CAT_TX = "tx"
CAT_WATCHDOG = "watchdog"
CAT_DRIVER = "driver"
CAT_RUN = "run"
CAT_HOST = "host"


@dataclass(frozen=True)
class InstantEvent:
    """A point event on the timeline."""

    name: str
    category: str
    sample: int
    ns: float
    host: bool = False
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpanEvent:
    """An interval event on the timeline (``end`` exclusive)."""

    name: str
    category: str
    start_sample: int
    end_sample: int
    start_ns: float
    end_ns: float
    host: bool = False
    args: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        """Span length in nanoseconds."""
        return self.end_ns - self.start_ns


class Tracer:
    """The tracer interface; the base class is the disabled tracer.

    ``enabled`` is False here and on :class:`NullTracer`, so probe
    points can guard loops with one attribute read and call the event
    methods unconditionally elsewhere.
    """

    enabled: bool = False

    def instant(self, name: str, category: str, sample: int,
                **args: object) -> None:
        """Record a point event at a sample index (no-op here)."""

    def span(self, name: str, category: str, start_sample: int,
             end_sample: int, **args: object) -> None:
        """Record an interval on the sample timeline (no-op here)."""

    def host_span(self, name: str, category: str, start_ns: int,
                  end_ns: int, **args: object) -> None:
        """Record a host wall-clock interval (no-op here)."""

    def events(self) -> list[InstantEvent | SpanEvent]:
        """The retained events, oldest first."""
        return []

    def clear(self) -> None:
        """Drop all retained events."""


class NullTracer(Tracer):
    """The explicit no-op tracer (identical to the base class)."""


#: The shared disabled tracer; safe to use as a default everywhere.
NULL_TRACER = NullTracer()


class RingTracer(Tracer):
    """A bounded tracer: keeps the most recent ``capacity`` events.

    Dropping the *oldest* events under overflow matches what a
    hardware trace buffer does and keeps the tail of a long run — the
    part a latency investigation usually needs — intact.

    Attributes:
        timebase: Converts sample indices to nanoseconds for stamping.
        emitted: Total events ever emitted (including dropped ones).
    """

    enabled = True

    def __init__(self, timebase: Timebase | None = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError("tracer capacity must be >= 1")
        self.timebase = timebase if timebase is not None else Timebase()
        self.capacity = int(capacity)
        self.emitted = 0
        self._events: deque[InstantEvent | SpanEvent] = deque(maxlen=capacity)

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.emitted - len(self._events)

    def instant(self, name: str, category: str, sample: int,
                **args: object) -> None:
        self.emitted += 1
        self._events.append(InstantEvent(
            name=name, category=category, sample=int(sample),
            ns=self.timebase.sample_to_ns(sample), args=args,
        ))

    def span(self, name: str, category: str, start_sample: int,
             end_sample: int, **args: object) -> None:
        self.emitted += 1
        self._events.append(SpanEvent(
            name=name, category=category,
            start_sample=int(start_sample), end_sample=int(end_sample),
            start_ns=self.timebase.sample_to_ns(start_sample),
            end_ns=self.timebase.sample_to_ns(end_sample),
            args=args,
        ))

    def host_span(self, name: str, category: str, start_ns: int,
                  end_ns: int, **args: object) -> None:
        self.emitted += 1
        self._events.append(SpanEvent(
            name=name, category=category,
            start_sample=-1, end_sample=-1,
            start_ns=float(start_ns), end_ns=float(end_ns),
            host=True, args=args,
        ))

    def events(self) -> list[InstantEvent | SpanEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def iter_category(self, category: str) -> Iterator[InstantEvent | SpanEvent]:
        """Retained events of one category, oldest first."""
        return (event for event in self._events if event.category == category)
