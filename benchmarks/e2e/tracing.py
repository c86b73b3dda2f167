"""Stage attribution from outside the program under test.

:class:`StageTracer` replaces a callable with a timing wrapper and puts
the original back when the tracer closes.  The callable can be a bound
method on one of the workload's own objects (``jammer.device.ddc`` and
its ``process``) or a function at the name the calling module imported
(``repro.hw.cross_correlator`` and its ``sign_plane``).  Nothing under
``src/`` changes.

Every wrapped call is a span.  Spans nest through a stack, so a stage's
*self* time is its span minus the spans of the wrapped calls it made.
Several callables may share one stage name: the transmit controller's
``schedule``, ``synthesize`` and ``observe_rx`` are all
``hw.tx_controller``.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

_MISSING = object()


@dataclass
class StageStats:
    """What one stage did during the traced region."""

    total_ns: int = 0
    self_ns: int = 0
    calls: int = 0
    #: Per-call span durations, kept only for stages that ask for them.
    durations_ns: list[int] = field(default_factory=list)


class StageTracer:
    """Times wrapped callables and restores them on :meth:`close`."""

    def __init__(self) -> None:
        self.stages: dict[str, StageStats] = {}
        #: Free-form counters filled by ``on_result`` hooks.
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def timed(self, fn: Callable, stage: str,
              on_result: Callable[[Any], None] | None = None,
              keep_durations: bool = False) -> Callable:
        """``fn`` wrapped so that every call is a span of ``stage``.

        ``on_result`` sees each return value (for counters);
        ``keep_durations`` keeps every span duration for percentiles.
        """
        stats = self.stages.setdefault(stage, StageStats())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed_call(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[0]
                stats.calls += 1
                if keep_durations:
                    stats.durations_ns.append(elapsed)
            if on_result is not None:
                on_result(result)
            return result

        return timed_call

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`close`."""
        self._patches.append((owner, attr,
                              vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, stage: str,
             on_result: Callable[[Any], None] | None = None,
             keep_durations: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span of ``stage``."""
        self.patch(owner, attr,
                   self.timed(getattr(owner, attr), stage,
                              on_result=on_result,
                              keep_durations=keep_durations))

    def close(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, before = self._patches.pop()
            if before is _MISSING:
                delattr(owner, attr)  # the class attribute shows again
            else:
                setattr(owner, attr, before)

    def covered_ns(self) -> int:
        """Self time summed over every stage (time some stage owns)."""
        return sum(stats.self_ns for stats in self.stages.values())

    def table(self, wall_ns: int) -> list[dict]:
        """One row per stage, busiest first, fractions of ``wall_ns``."""
        rows = [
            {"stage": name, "calls": stats.calls,
             "busy_ms": stats.total_ns / 1e6,
             "self_ms": stats.self_ns / 1e6,
             "busy_frac": stats.total_ns / wall_ns if wall_ns else 0.0,
             "self_frac": stats.self_ns / wall_ns if wall_ns else 0.0}
            for name, stats in self.stages.items()
        ]
        rows.sort(key=lambda row: row["busy_ms"], reverse=True)
        return rows


def format_table(rows: list[dict], wall_ns: int, title: str) -> str:
    """The stage table as aligned text."""
    lines = [f"{title}: traced pass {wall_ns / 1e6:.1f} ms",
             f"  {'stage':<32}{'busy ms':>10}{'busy':>8}"
             f"{'self ms':>10}{'self':>8}{'calls':>9}"]
    for row in rows:
        lines.append(
            f"  {row['stage']:<32}{row['busy_ms']:>10.2f}"
            f"{row['busy_frac']:>8.1%}{row['self_ms']:>10.2f}"
            f"{row['self_frac']:>8.1%}{row['calls']:>9}")
    return "\n".join(lines)
