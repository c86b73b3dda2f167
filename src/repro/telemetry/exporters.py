"""Trace and metrics exporters: JSONL, Chrome trace-event, text.

Three consumers, three formats:

* **JSONL** — one JSON object per event, for ad-hoc ``jq``/pandas
  analysis and the benchmark perf records;
* **Chrome trace-event JSON** — loadable in Perfetto or
  ``chrome://tracing``; sample-domain events render on their own
  tracks with microsecond timestamps derived from the sample clock,
  host-timed stage spans on a separate "host" track, shifted so the
  earliest starts at 0 (JSONL keeps their raw host-clock ns);
* **text summary** — the console's ``stats`` view.

The trace-event format reference: instant events use phase ``"i"``,
complete spans phase ``"X"`` with ``dur``; timestamps (``ts``) are in
microseconds.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import InstantEvent, SpanEvent

#: Nanoseconds per microsecond (trace-event ``ts`` is in µs).
_NS_PER_US = 1_000.0

#: Synthetic pid/tid layout for the trace viewer: one process, one
#: thread per category so tracks group naturally.
_TRACE_PID = 1


def event_to_dict(event: InstantEvent | SpanEvent) -> dict:
    """One event as a flat JSON-ready dict (the JSONL schema)."""
    if isinstance(event, InstantEvent):
        record = {
            "type": "instant",
            "name": event.name,
            "category": event.category,
            "sample": event.sample,
            "ns": event.ns,
            "host": event.host,
        }
    else:
        record = {
            "type": "span",
            "name": event.name,
            "category": event.category,
            "start_sample": event.start_sample,
            "end_sample": event.end_sample,
            "start_ns": event.start_ns,
            "end_ns": event.end_ns,
            "host": event.host,
        }
    if event.args:
        record["args"] = {key: _jsonable(value)
                          for key, value in event.args.items()}
    return record


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def events_to_jsonl(events: Iterable[InstantEvent | SpanEvent]) -> str:
    """The events as newline-delimited JSON."""
    return "\n".join(json.dumps(event_to_dict(event), sort_keys=True)
                     for event in events)


def write_jsonl(events: Iterable[InstantEvent | SpanEvent],
                path: str | Path) -> Path:
    """Write the JSONL export; returns the path written."""
    path = Path(path)
    text = events_to_jsonl(events)
    path.write_text(text + "\n" if text else "", encoding="utf-8")
    return path


def _tids(events: Sequence[InstantEvent | SpanEvent]) -> dict[str, int]:
    categories = sorted({event.category for event in events})
    return {category: index + 1 for index, category in enumerate(categories)}


def _start_ns(event: InstantEvent | SpanEvent) -> float:
    return event.ns if isinstance(event, InstantEvent) else event.start_ns


def chrome_trace_events(events: Sequence[InstantEvent | SpanEvent]) -> list[dict]:
    """The events in Chrome trace-event form (``traceEvents`` list)."""
    tids = _tids(events)
    # Host events carry the host clock's raw ns, whose epoch is
    # arbitrary (hours away from sample 0): rebased to the earliest of
    # them, they share the axis the sample-domain events start at 0 on.
    host_origin = min((_start_ns(event) for event in events if event.host),
                      default=0.0)
    out: list[dict] = [
        {"ph": "M", "pid": _TRACE_PID, "tid": tid, "name": "thread_name",
         "args": {"name": category}}
        for category, tid in tids.items()
    ]
    for event in events:
        args = {key: _jsonable(value) for key, value in event.args.items()}
        ts = (_start_ns(event) - (host_origin if event.host else 0.0)) \
            / _NS_PER_US
        if isinstance(event, InstantEvent):
            args.setdefault("sample", event.sample)
            out.append({
                "ph": "i", "s": "t",
                "name": event.name, "cat": event.category,
                "pid": _TRACE_PID, "tid": tids[event.category],
                "ts": ts,
                "args": args,
            })
        else:
            if not event.host:
                args.setdefault("start_sample", event.start_sample)
                args.setdefault("end_sample", event.end_sample)
            out.append({
                "ph": "X",
                "name": event.name, "cat": event.category,
                "pid": _TRACE_PID, "tid": tids[event.category],
                "ts": ts,
                "dur": event.duration_ns / _NS_PER_US,
                "args": args,
            })
    return out


def write_chrome_trace(events: Sequence[InstantEvent | SpanEvent],
                       path: str | Path) -> Path:
    """Write a Perfetto/chrome://tracing-loadable JSON trace file."""
    path = Path(path)
    document = {
        "traceEvents": chrome_trace_events(events),
        "displayTimeUnit": "ns",
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def text_summary(events: Sequence[InstantEvent | SpanEvent],
                 metrics: MetricsRegistry | None = None,
                 dropped: int = 0) -> str:
    """A console-friendly digest of a trace (and optional metrics)."""
    lines = [f"trace: {len(events)} events retained"
             + (f" ({dropped} dropped by the ring bound)" if dropped else "")]
    by_name: dict[tuple[str, str], int] = {}
    for event in events:
        key = (event.category, event.name)
        by_name[key] = by_name.get(key, 0) + 1
    for (category, name), count in sorted(by_name.items()):
        lines.append(f"  {category}/{name:<28}{count:>10}")
    if metrics is not None:
        lines.append("metrics:")
        for line in metrics.summary().splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)
