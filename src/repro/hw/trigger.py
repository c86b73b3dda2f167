"""The three-stage trigger event state machine (paper §2.4).

"A three-stage hardware state machine allows the user to select up to
three trigger event combinations, all of which must occur within a
user-assigned time interval."

Each stage selects one detection source (cross-correlator, energy
high, or energy low).  When every enabled stage has fired, in order,
within ``window`` samples of the first stage's event, the machine
emits a jam trigger and returns to idle.  If the window expires the
partial progress is discarded.

The machine operates on *event edges* (rising edges of the per-sample
trigger booleans), which lets the surrounding core run vectorized: the
core stacks every detector's trigger rows into one plane, reduces it
to edge timestamps with :func:`repro.kernels.edge_mask`, and the FSM —
whose state only changes on events — walks the edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.telemetry.tracer import CAT_FSM, NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.hw.watchdog import Watchdog


class TriggerSource(enum.IntEnum):
    """Detection sources selectable by each FSM stage.

    The integer values are the 4-bit field encodings in the trigger
    configuration register.
    """

    XCORR = 0
    ENERGY_HIGH = 1
    ENERGY_LOW = 2


class TriggerMode(enum.IntEnum):
    """How multiple enabled stages combine.

    SEQUENCE is the paper's description ("all of which must occur
    within a user-assigned time interval"); ANY fires on whichever
    enabled source triggers first — the combination the WiMAX
    experiment needs ("combining the cross-correlator with the energy
    differentiator ... able to detect reliably 100%").
    """

    SEQUENCE = 0
    ANY = 1


@dataclass(frozen=True)
class StageConfig:
    """One FSM stage: which source it waits for."""

    source: TriggerSource


class TriggerStateMachine:
    """Combines up to three detection events within a time window."""

    MAX_STAGES = 3

    def __init__(self, stages: list[StageConfig] | list[TriggerSource],
                 window_samples: int = 0,
                 mode: TriggerMode = TriggerMode.SEQUENCE) -> None:
        if not stages:
            raise ConfigurationError("at least one trigger stage must be enabled")
        if len(stages) > self.MAX_STAGES:
            raise ConfigurationError(
                f"the hardware FSM has {self.MAX_STAGES} stages, got {len(stages)}"
            )
        normalized: list[StageConfig] = []
        for stage in stages:
            if isinstance(stage, TriggerSource):
                normalized.append(StageConfig(source=stage))
            else:
                normalized.append(stage)
        self._stages = normalized
        self._mode = TriggerMode(mode)
        self.window_samples = window_samples
        # Run-time state: stages matched so far, and the time of the
        # first one.  A fire or an expiry resets it in place.
        self._stage_index = 0
        self._first_event_time = -1
        #: Telemetry probe for state transitions (null by default).
        self.tracer: Tracer = NULL_TRACER
        #: The watchdog whose re-arm timeout the armed machine asks
        #: about before each event it takes (the DSP core wires its
        #: own; ``None`` leaves the machine unguarded).
        self.watchdog: Watchdog | None = None

    @property
    def stages(self) -> list[StageConfig]:
        """Configured stages (copy)."""
        return list(self._stages)

    @property
    def mode(self) -> TriggerMode:
        """Stage combination mode (SEQUENCE or ANY)."""
        return self._mode

    @property
    def window_samples(self) -> int:
        """Time window, in samples, for multi-stage combination."""
        return self._window

    @window_samples.setter
    def window_samples(self, value: int) -> None:
        if value < 0:
            raise ConfigurationError("window_samples must be >= 0")
        if (len(self._stages) > 1 and value == 0
                and self._mode is TriggerMode.SEQUENCE):
            raise ConfigurationError(
                "multi-stage sequential combination needs a non-zero window"
            )
        self._window = int(value)

    @property
    def armed_since(self) -> int | None:
        """Sample time of the first matched stage, or ``None`` if idle.

        A partially-advanced machine is "armed": it has consumed at
        least one stage event and is waiting for the rest of the
        sequence.  The watchdog's re-arm timeout uses this to reset a
        machine that has been armed implausibly long (e.g. because a
        corrupted window register made the expiry check unreachable).
        """
        if self._stage_index == 0:
            return None
        return self._first_event_time

    def reset(self) -> None:
        """Return the machine to idle, discarding partial progress."""
        self._stage_index = 0
        self._first_event_time = -1

    def process_events(self, events: list[tuple[int, TriggerSource]]) -> list[int]:
        """Feed time-ordered detection events; return jam-trigger times.

        ``events`` is a list of ``(sample_time, source)`` tuples in
        non-decreasing time order (merged across sources by the core).
        Returns sample times at which the FSM completed and asserted
        the jam trigger.

        Before each event the armed machine takes, its :attr:`watchdog`
        (:meth:`repro.hw.watchdog.Watchdog.check_rearm`) may reset it,
        so a stale arm is dropped at the sample its re-arm timeout
        elapses, wherever the chunk boundaries fall.
        """
        jam_times: list[int] = []
        tracer = self.tracer if self.tracer.enabled else None
        if self._mode is TriggerMode.ANY:
            wanted = {stage.source for stage in self._stages}
            fired = [time for time, source in events if source in wanted]
            if tracer is not None:
                for time in fired:
                    tracer.instant("fsm.fire", CAT_FSM, time, mode="ANY")
            return fired
        stages = self._stages
        watchdog = self.watchdog
        for time, source in events:
            if self._stage_index and watchdog is not None:
                watchdog.check_rearm(self, time)
            # Expire a partially-matched window.
            if (self._stage_index
                    and time - self._first_event_time > self._window):
                if tracer is not None:
                    tracer.instant("fsm.expire", CAT_FSM, time,
                                   armed_since=self._first_event_time,
                                   stage=self._stage_index)
                self.reset()
            if source != stages[self._stage_index].source:
                continue
            if self._stage_index == 0:
                self._first_event_time = time
            self._stage_index += 1
            if self._stage_index == len(stages):
                if tracer is not None:
                    tracer.instant("fsm.fire", CAT_FSM, time,
                                   mode="SEQUENCE", stages=len(stages))
                jam_times.append(time)
                self.reset()
            elif tracer is not None:
                name = "fsm.arm" if self._stage_index == 1 else "fsm.advance"
                tracer.instant(name, CAT_FSM, time,
                               stage=self._stage_index,
                               source=source.name)
        return jam_times
