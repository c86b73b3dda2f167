"""The DSP-core watchdog: last-line defence inside the FPGA fabric.

Host-side hardening (verified writes, register scrubbing) repairs the
control plane, but a corrupted register can still reach the core
between a fault and its repair.  The watchdog bounds the damage from
inside the core, the way real safety logic is synthesized next to the
datapath:

* a **jam duty-cycle guard** — transmitted jamming time over a sliding
  window may never exceed a configured fraction, no matter what the
  uptime register claims (a runaway jammer is an FCC incident, not a
  bug report);
* a **trigger-FSM re-arm timeout** — a partially-advanced multi-stage
  trigger that has waited longer than the timeout is reset, so a
  corrupted (huge) combination window cannot latch a stale stage-1
  event forever;
* **safe-state entry on illegal register contents** — a register word
  the core cannot decode (unknown trigger source, undecodable
  waveform select, zero uptime) flags the register and suppresses
  transmission until a legal word lands, instead of crashing the
  stream thread.

Every intervention is recorded as a :class:`WatchdogTrip` so the host
health report can surface what the core had to do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.telemetry.tracer import CAT_WATCHDOG, NULL_TRACER, Tracer

#: Default duty-cycle accounting window: 10 ms of baseband (250k
#: samples at 25 MSPS) — long against any burst, short against an
#: experiment.
DEFAULT_DUTY_WINDOW_SAMPLES = 250_000

#: Trip reasons, used as the ``reason`` field of :class:`WatchdogTrip`.
TRIP_DUTY_CYCLE = "duty-cycle"
TRIP_REARM_TIMEOUT = "rearm-timeout"
TRIP_ILLEGAL_REGISTER = "illegal-register"


@dataclass(frozen=True)
class WatchdogConfig:
    """Watchdog policy knobs.

    Attributes:
        max_duty_cycle: Largest allowed fraction of the sliding window
            the jammer may transmit (1.0 disables the guard).
        duty_window_samples: Sliding-window length in baseband samples.
        rearm_timeout_samples: Longest a partially-advanced trigger
            FSM may stay armed before being reset (0 disables).
        safe_state_on_illegal: Enter safe state on undecodable
            register contents instead of raising into the stream path.
    """

    max_duty_cycle: float = 1.0
    duty_window_samples: int = DEFAULT_DUTY_WINDOW_SAMPLES
    rearm_timeout_samples: int = 0
    safe_state_on_illegal: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.max_duty_cycle <= 1.0:
            raise ConfigurationError(
                f"max_duty_cycle {self.max_duty_cycle} outside (0, 1]"
            )
        if self.duty_window_samples < 1:
            raise ConfigurationError("duty_window_samples must be >= 1")
        if self.rearm_timeout_samples < 0:
            raise ConfigurationError("rearm_timeout_samples must be >= 0")


@dataclass(frozen=True)
class WatchdogTrip:
    """One watchdog intervention, stamped with the core sample clock."""

    time: int
    reason: str
    detail: str


class Watchdog:
    """Run-time state of the core watchdog.

    The duty guard is a sliding-window budget: admitted transmit spans
    are recorded, and a new burst is vetoed when its span would push
    the transmitted time inside the trailing window past
    ``max_duty_cycle``.  The guarantee is exact for bursts shorter
    than the window and conservative otherwise.
    """

    def __init__(self, config: WatchdogConfig | None = None) -> None:
        self.config = config if config is not None else WatchdogConfig()
        self.trips: list[WatchdogTrip] = []
        self._reported = 0  # trips already handed to a report
        # Recorded transmit spans, oldest first, and the sum of their
        # lengths.  ``_ordered`` holds while each span starts at or
        # after the previous one's end, as every burst and continuous
        # chunk does; then only the oldest span can straddle a
        # window's start.
        self._spans: deque[tuple[int, int]] = deque()
        self._span_total = 0
        self._ordered = True
        self._illegal: dict[int, str] = {}
        #: Telemetry probe: every trip also lands in the trace.
        self.tracer: Tracer = NULL_TRACER

    def _record_trip(self, trip: WatchdogTrip) -> None:
        self.trips.append(trip)
        if self.tracer.enabled:
            self.tracer.instant(f"watchdog.{trip.reason}", CAT_WATCHDOG,
                                trip.time, detail=trip.detail)

    # ------------------------------------------------------------------
    # Duty-cycle guard

    def _prune(self, now: int) -> None:
        horizon = now - self.config.duty_window_samples
        spans = self._spans
        while spans and spans[0][1] <= horizon:
            start, end = spans.popleft()
            self._span_total -= end - start
        if not spans:
            self._ordered = True

    def _busy_samples(self, now: int) -> int:
        """Recorded samples inside the window ending at ``now``.

        Runs after :meth:`_prune` at the same ``now``.  While the spans
        are ordered and none ends after ``now`` — every duty decision
        asks at a time no recorded span has passed — that is the span
        total less the oldest span's part before the window, one step.
        Any other query (a ``duty_cycle`` at an earlier time) walks
        the spans.
        """
        spans = self._spans
        if not spans:
            return 0
        lo = now - self.config.duty_window_samples
        if self._ordered and spans[-1][1] <= now:
            return self._span_total - max(0, lo - spans[0][0])
        busy = 0
        for start, end in spans:
            overlap = min(end, now) - max(start, lo)
            if overlap > 0:
                busy += overlap
        return busy

    def duty_cycle(self, now: int) -> float:
        """Transmitted fraction of the window ending at ``now``."""
        self._prune(now)
        return self._busy_samples(now) / self.config.duty_window_samples

    def admit_interval(self, start: int, end: int) -> bool:
        """Admit or veto the jam burst ``[start, end)``.

        The transmit controller's ``schedule`` asks this before it
        commits a burst.  Admitted spans are recorded against the
        budget; a vetoed burst never occupies the pipeline and leaves
        only its trip record, so every vetoed trigger is one trip.
        The decision costs the same however many spans the window
        holds.
        """
        self._prune(start)
        if self.config.max_duty_cycle >= 1.0:
            self._record(start, end)
            return True
        window = self.config.duty_window_samples
        budget = self.config.max_duty_cycle * window
        projected = self._busy_samples(start) + min(end - start, window)
        if projected > budget:
            self._record_trip(WatchdogTrip(
                time=start, reason=TRIP_DUTY_CYCLE,
                detail=f"burst [{start}, {end}) vetoed: projected duty "
                       f"{projected / window:.3f} exceeds "
                       f"{self.config.max_duty_cycle:.3f}",
            ))
            return False
        self._record(start, end)
        return True

    def continuous_allowance(self, chunk_start: int, n: int) -> int:
        """Samples of a continuous-mode chunk the budget still allows.

        Continuous jamming is throttled rather than vetoed: each chunk
        may transmit up to the remaining window budget, which realizes
        ``max_duty_cycle`` as a long-run duty bound.
        """
        self._prune(chunk_start)
        if self.config.max_duty_cycle >= 1.0:
            self._record(chunk_start, chunk_start + n)
            return n
        window = self.config.duty_window_samples
        budget = self.config.max_duty_cycle * window
        remaining = int(budget - self._busy_samples(chunk_start))
        allowed = max(0, min(n, remaining))
        if allowed:
            self._record(chunk_start, chunk_start + allowed)
        if allowed < n:
            self._record_trip(WatchdogTrip(
                time=chunk_start, reason=TRIP_DUTY_CYCLE,
                detail=f"continuous transmission throttled to {allowed} of "
                       f"{n} samples by the duty budget",
            ))
        return allowed

    def _record(self, start: int, end: int) -> None:
        if end > start:
            spans = self._spans
            if spans and start < spans[-1][1]:
                self._ordered = False
            spans.append((start, end))
            self._span_total += end - start

    # ------------------------------------------------------------------
    # Safe state on illegal register contents

    def flag_illegal(self, address: int, time: int, detail: str) -> None:
        """Mark a register as holding undecodable contents."""
        if address not in self._illegal:
            self._record_trip(WatchdogTrip(
                time=time, reason=TRIP_ILLEGAL_REGISTER,
                detail=f"register {address} holds illegal contents: {detail}",
            ))
        self._illegal[address] = detail

    def clear_illegal(self, address: int) -> None:
        """A legal word landed; the register is trustworthy again."""
        self._illegal.pop(address, None)

    @property
    def safe_state(self) -> bool:
        """Whether transmission is suppressed by illegal registers."""
        return bool(self._illegal)

    @property
    def illegal_registers(self) -> dict[int, str]:
        """Currently-flagged registers and why (copy)."""
        return dict(self._illegal)

    # ------------------------------------------------------------------
    # Trigger-FSM re-arm timeout

    def check_rearm(self, fsm, now: int) -> bool:
        """Reset a stale partially-advanced FSM; True if it tripped.

        A machine armed at sample ``a`` is stale from sample ``a +
        timeout + 1`` on.  The trip is stamped with that sample, so it
        does not depend on when the check runs: the DSP core asks
        before each event the armed machine takes and at each chunk's
        last sample, so the reset lands at that sample at every
        chunking.
        """
        timeout = self.config.rearm_timeout_samples
        if timeout == 0:
            return False
        armed_since = fsm.armed_since
        if armed_since is None or now - armed_since <= timeout:
            return False
        fsm.reset()
        self._record_trip(WatchdogTrip(
            time=armed_since + timeout + 1, reason=TRIP_REARM_TIMEOUT,
            detail=f"trigger FSM armed since sample {armed_since} "
                   f"re-armed after {timeout + 1} samples",
        ))
        return True

    # ------------------------------------------------------------------

    def trips_by_reason(self, reason: str) -> list[WatchdogTrip]:
        """Trips matching one reason string."""
        return [trip for trip in self.trips if trip.reason == reason]

    def report_trips(self) -> list[WatchdogTrip]:
        """The trips recorded since the last call (or :meth:`reset`).

        Each ``ReactiveJammer.run`` report carries these, so a report
        holds its own run's trips (and any recorded between runs), not
        every earlier run's.  :attr:`trips` keeps the whole history.
        """
        trips = self.trips[self._reported:]
        self._reported = len(self.trips)
        return trips

    def reset(self) -> None:
        """Clear run-time state (trip history included)."""
        self.trips.clear()
        self._reported = 0
        self._spans.clear()
        self._span_total = 0
        self._ordered = True
        self._illegal.clear()
