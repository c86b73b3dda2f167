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


class TriggerStateMachine:
    """Combines up to three detection events within a time window."""

    MAX_STAGES = 3

    def __init__(self, stages: list[TriggerSource],
                 window_samples: int = 0,
                 mode: TriggerMode = TriggerMode.SEQUENCE) -> None:
        if not stages:
            raise ConfigurationError("at least one trigger stage must be enabled")
        if len(stages) > self.MAX_STAGES:
            raise ConfigurationError(
                f"the hardware FSM has {self.MAX_STAGES} stages, got {len(stages)}"
            )
        self._stages = [TriggerSource(stage) for stage in stages]
        self._mode = TriggerMode(mode)
        self.window_samples = window_samples
        # Run-time state: stages matched so far, and the time of the
        # first one.  A fire or an expiry resets it in place.
        self._stage_index = 0
        self._first_event_time = -1
        #: Telemetry probe for state transitions (null by default).
        self.tracer: Tracer = NULL_TRACER
        #: The watchdog whose re-arm timeout :meth:`expire` asks about
        #: (the DSP core wires its own; ``None`` leaves the machine
        #: unguarded).
        self.watchdog: Watchdog | None = None

    @property
    def stages(self) -> list[TriggerSource]:
        """Configured stage sources, in order (copy)."""
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

    def expire(self, now: int) -> None:
        """End an arm that has lapsed by sample ``now``.

        An arm taken at sample ``a`` lapses at ``a + window + 1``.  The
        :attr:`watchdog`'s re-arm timeout ends it at ``a + timeout +
        1`` instead when that comes first, and records a trip.  The
        window wins a tie, and ``fsm.expire`` is stamped where the
        window ran out, so the outcome does not depend on when the
        check runs: the machine checks before each event it takes
        while armed, and the DSP core at each chunk's last sample.
        """
        if not self._stage_index:
            return
        armed = self._first_event_time
        lapse = armed + self._window + 1
        # Asked as of the window's last sample at the latest, the
        # watchdog trips only on a timeout that elapsed while the
        # window still held the arm.
        watchdog = self.watchdog
        if watchdog is not None \
                and watchdog.check_rearm(self, min(now, lapse - 1)):
            return
        if now >= lapse:
            if self.tracer.enabled:
                self.tracer.instant("fsm.expire", CAT_FSM, lapse,
                                    armed_since=armed,
                                    stage=self._stage_index)
            self.reset()

    def process_events(self, events: list[tuple[int, TriggerSource]]) -> list[int]:
        """Feed time-ordered detection events; return jam-trigger times.

        ``events`` is a list of ``(sample_time, source)`` tuples in
        non-decreasing time order (merged across sources by the core).
        Returns sample times at which the FSM completed and asserted
        the jam trigger.

        Before each event the armed machine takes, :meth:`expire` ends
        a lapsed arm, by its window or by the :attr:`watchdog`'s re-arm
        timeout, wherever the chunk boundaries fall.
        """
        jam_times: list[int] = []
        tracer = self.tracer if self.tracer.enabled else None
        if self._mode is TriggerMode.ANY:
            wanted = set(self._stages)
            fired = [time for time, source in events if source in wanted]
            if tracer is not None:
                for time in fired:
                    tracer.instant("fsm.fire", CAT_FSM, time, mode="ANY")
            return fired
        stages = self._stages
        for time, source in events:
            if self._stage_index:
                self.expire(time)
            if source != stages[self._stage_index]:
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
