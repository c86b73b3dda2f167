"""The reactive jammer facade — the framework's main entry point.

Composes a :class:`repro.hw.usrp.UsrpN210` (with the custom core), a
detection configuration, an event definition, and a response
personality into one object that can be pointed at received signal:

    >>> jammer = ReactiveJammer()
    >>> jammer.configure(
    ...     detection=DetectionConfig(template=wifi_short_preamble_template(),
    ...                               xcorr_threshold=30000),
    ...     events=JammingEventBuilder().on_correlation(),
    ...     personality=reactive_jammer(1e-4),
    ... )
    >>> report = jammer.run(rx_waveform)

Everything is reconfigurable at run time through register writes, as
the paper emphasizes ("on-the-fly jamming personalities ... with a
small latency equivalent to the latency of the UHD user setting bus").
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import units
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.presets import JammerPersonality
from repro.errors import ConfigurationError, StreamError
from repro.hw.dsp_core import DetectionEvent
from repro.hw.trigger import TriggerSource
from repro.hw.tx_controller import JamEvent, JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import SbxFrontend, UsrpN210
from repro.hw.watchdog import Watchdog, WatchdogTrip
from repro.telemetry.session import Telemetry
from repro.telemetry.tracer import CAT_RUN

if TYPE_CHECKING:  # repro.faults imports repro.hw; avoid the cycle.
    from repro.faults.stream import StreamFaultInjector


class DegradationPolicy(enum.Enum):
    """What :meth:`ReactiveJammer.run` does when a chunk fails.

    FAIL_FAST re-raises the first streaming error (the historical
    behaviour — correct for offline analysis, where a lost chunk means
    a broken experiment).  SKIP_AND_LOG drops the failing chunk,
    substitutes silence on the transmit side, keeps the absolute
    timeline aligned, and records the failure in the
    :class:`HealthReport` — what a deployed jammer must do, since an
    RX overrun is not a reason to stop jamming.
    """

    FAIL_FAST = "fail-fast"
    SKIP_AND_LOG = "skip-and-log"


@dataclass
class HealthReport:
    """Structured account of everything that went wrong (and was survived).

    Attached to :class:`JammingReport` by :meth:`ReactiveJammer.run`.
    """

    chunks_processed: int = 0
    chunks_skipped: int = 0
    samples_skipped: int = 0
    stream_errors: list[str] = field(default_factory=list)
    #: :class:`repro.hw.uhd.DriverHealth` counters at end of run.
    driver: dict[str, int] = field(default_factory=dict)
    #: Register addresses repaired by scrub passes during the run.
    scrub_repairs: list[int] = field(default_factory=list)
    #: Watchdog trips since the previous report: the run's own, and
    #: any a register write recorded between runs.
    watchdog_trips: list[WatchdogTrip] = field(default_factory=list)
    #: Telemetry metrics snapshot (empty without a telemetry bundle).
    metrics: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether the run needed any recovery or intervention."""
        return bool(self.chunks_skipped or self.scrub_repairs
                    or self.watchdog_trips
                    or self.driver.get("retries", 0)
                    or self.driver.get("write_failures", 0))

    def to_dict(self) -> dict:
        """A JSON-compatible dict of the report."""
        return {
            "chunks_processed": self.chunks_processed,
            "chunks_skipped": self.chunks_skipped,
            "samples_skipped": self.samples_skipped,
            "stream_errors": list(self.stream_errors),
            "driver": dict(self.driver),
            "scrub_repairs": list(self.scrub_repairs),
            "watchdog_trips": [
                {"time": t.time, "reason": t.reason, "detail": t.detail}
                for t in self.watchdog_trips
            ],
            "metrics": self.metrics,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HealthReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            chunks_processed=data.get("chunks_processed", 0),
            chunks_skipped=data.get("chunks_skipped", 0),
            samples_skipped=data.get("samples_skipped", 0),
            stream_errors=list(data.get("stream_errors", [])),
            driver=dict(data.get("driver", {})),
            scrub_repairs=list(data.get("scrub_repairs", [])),
            watchdog_trips=[
                WatchdogTrip(time=t["time"], reason=t["reason"],
                             detail=t["detail"])
                for t in data.get("watchdog_trips", [])
            ],
            metrics=dict(data.get("metrics", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        """The report serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "HealthReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


@dataclass
class JammingReport:
    """Everything observed during one run of the jammer."""

    tx: np.ndarray
    detections: list[DetectionEvent] = field(default_factory=list)
    jams: list[JamEvent] = field(default_factory=list)
    sample_rate: float = units.BASEBAND_RATE
    health: HealthReport = field(default_factory=HealthReport)

    @property
    def detection_times(self) -> list[float]:
        """Detection instants in seconds."""
        return [d.time / self.sample_rate for d in self.detections]

    def detections_by_source(self, source: TriggerSource) -> list[DetectionEvent]:
        """Detections from one detector block."""
        return [d for d in self.detections if d.source == source]

    def detections_by_protocol(self, protocol: str) -> list[DetectionEvent]:
        """Detections attributed to one stacked correlator bank."""
        return [d for d in self.detections if d.protocol == protocol]

    @property
    def protocol_counts(self) -> dict[str, int]:
        """Detections per protocol label (stacked-bank runs only)."""
        counts: dict[str, int] = {}
        for d in self.detections:
            if d.protocol is not None:
                counts[d.protocol] = counts.get(d.protocol, 0) + 1
        return counts

    @property
    def jam_spans_seconds(self) -> list[tuple[float, float]]:
        """Jam bursts as (start, end) in seconds."""
        return [(j.start / self.sample_rate, j.end / self.sample_rate)
                for j in self.jams]

    @property
    def total_jam_airtime(self) -> float:
        """Total transmitted jamming time in seconds."""
        return sum(end - start for start, end in self.jam_spans_seconds)

    def to_dict(self, include_tx: bool = False) -> dict:
        """A JSON-compatible dict of the report.

        The transmit waveform is omitted by default (it dominates the
        payload size); ``include_tx`` serializes it as parallel
        ``tx_re``/``tx_im`` lists.
        """
        data: dict = {
            "sample_rate": self.sample_rate,
            "detections": [
                {"time": d.time, "source": d.source.name}
                if d.protocol is None else
                {"time": d.time, "source": d.source.name,
                 "protocol": d.protocol}
                for d in self.detections
            ],
            "jams": [
                {"trigger_time": j.trigger_time, "start": j.start,
                 "end": j.end, "waveform": j.waveform.name}
                for j in self.jams
            ],
            "health": self.health.to_dict(),
        }
        if include_tx:
            data["tx_re"] = self.tx.real.tolist()
            data["tx_im"] = self.tx.imag.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JammingReport":
        """Rebuild a report from :meth:`to_dict` output."""
        if "tx_re" in data:
            tx = (np.asarray(data["tx_re"], dtype=np.float64)
                  + 1j * np.asarray(data["tx_im"], dtype=np.float64))
        else:
            tx = np.zeros(0, dtype=np.complex128)
        return cls(
            tx=tx,
            detections=[
                DetectionEvent(time=d["time"],
                               source=TriggerSource[d["source"]],
                               protocol=d.get("protocol"))
                for d in data.get("detections", [])
            ],
            jams=[
                JamEvent(trigger_time=j["trigger_time"], start=j["start"],
                         end=j["end"], waveform=JamWaveform[j["waveform"]])
                for j in data.get("jams", [])
            ],
            sample_rate=data.get("sample_rate", units.BASEBAND_RATE),
            health=HealthReport.from_dict(data.get("health", {})),
        )

    def to_json(self, include_tx: bool = False,
                indent: int | None = None) -> str:
        """The report serialized as JSON."""
        return json.dumps(self.to_dict(include_tx=include_tx), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "JammingReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


class ReactiveJammer:
    """The real-time protocol-aware reactive jammer."""

    def __init__(self, device: UsrpN210 | None = None, *,
                 watchdog: Watchdog | None = None,
                 stream_faults: "StreamFaultInjector | None" = None,
                 verify_writes: bool = True,
                 telemetry: Telemetry | None = None) -> None:
        if device is not None and (watchdog is not None
                                   or stream_faults is not None):
            raise ConfigurationError(
                "watchdog/stream_faults are wired at device construction; "
                "pass them to UsrpN210 when supplying your own device"
            )
        self.device = device if device is not None else UsrpN210(
            watchdog=watchdog, stream_faults=stream_faults)
        self.driver = UhdDriver(self.device, verify_writes=verify_writes)
        #: Opt-in observability bundle (``None`` leaves every probe
        #: point at its null default).
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.device, self.driver)
        self._configured = False

    @property
    def frontend(self) -> SbxFrontend:
        """RF front end, for tuning and gain control."""
        return self.device.frontend

    def configure(self, detection: DetectionConfig,
                  events: JammingEventBuilder,
                  personality: JammerPersonality) -> None:
        """Program detection, event combination, and response.

        With ``detection.banks`` set, the stacked multi-standard
        correlator is programmed through
        :meth:`repro.hw.uhd.UhdDriver.set_correlator_banks`, whose
        write order is atomic against stale thresholds: every per-bank
        threshold register is written (readback-verified) while the
        bank count is parked at zero, and only the final count write
        enables the correlator stage — the same discipline
        :meth:`~repro.hw.uhd.UhdDriver.set_trigger_stages` applies to
        the trigger window.
        """
        if detection.banks is not None:
            self.driver.set_correlator_banks(
                [bank.template for bank in detection.banks],
                [bank.threshold for bank in detection.banks],
                labels=[bank.name for bank in detection.banks],
            )
        else:
            if self.device.core.bank_count:
                self.driver.set_bank_count(0)
            if detection.template is not None:
                self.driver.set_correlator_template(detection.template)
            elif any(s is TriggerSource.XCORR for s in events.stages):
                raise ConfigurationError(
                    "event definition uses the correlator but no template "
                    "is set"
                )
        self.driver.set_xcorr_threshold(detection.xcorr_threshold)
        self.driver.set_energy_thresholds(detection.energy_high_db,
                                          detection.energy_low_db)
        events.program(self.driver)
        self.apply_personality(personality)
        self._configured = True

    def apply_personality(self, personality: JammerPersonality) -> None:
        """Swap the response personality at run time (paper §4.3)."""
        self.driver.set_jam_waveform(personality.waveform,
                                     personality.wgn_seed)
        if not personality.continuous:
            self.driver.set_jam_uptime(personality.uptime_samples)
            self.driver.set_jam_delay(personality.delay_samples)
        self.driver.set_control(jammer_enabled=True,
                                continuous=personality.continuous)
        self._personality = personality

    def disable(self) -> None:
        """Stop transmitting (detection keeps running)."""
        self.driver.set_control(jammer_enabled=False, continuous=False)

    def run(self, rx_signal: np.ndarray, chunk_size: int = 1 << 16,
            degradation: DegradationPolicy = DegradationPolicy.FAIL_FAST,
            scrub_every_chunks: int = 0) -> JammingReport:
        """Feed a received waveform through the jammer.

        ``rx_signal`` is complex baseband at the jammer's 25 MSPS input
        rate (use :mod:`repro.channel.combining` to build it from
        transmitters at other rates).

        ``degradation`` selects per-chunk error recovery: under
        SKIP_AND_LOG a chunk whose processing raises
        :class:`~repro.errors.StreamError` is dropped (silence is
        transmitted for its span, the device timeline is advanced with
        ``skip``) and the failure is logged in the report's
        :class:`HealthReport`.  ``scrub_every_chunks > 0`` runs the
        driver's shadow-map :meth:`~repro.hw.uhd.UhdDriver.scrub`
        repair pass every that many chunks.
        """
        if not self._configured:
            raise ConfigurationError("configure() must be called before run()")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if scrub_every_chunks < 0:
            raise ConfigurationError("scrub_every_chunks must be >= 0")
        rx_signal = np.asarray(rx_signal, dtype=np.complex128)
        tel = self.telemetry if (self.telemetry is not None
                                 and self.telemetry.enabled) else None
        run_start_ns = tel.timebase.host_now_ns() if tel is not None else 0
        health = HealthReport()
        # The run owns its transmit waveform: each chunk's samples are
        # written into its span, and a skipped chunk's span stays zero.
        tx = np.zeros(rx_signal.size, dtype=np.complex128)
        detections: list[DetectionEvent] = []
        jams: list[JamEvent] = []
        for index, start in enumerate(range(0, rx_signal.size, chunk_size)):
            stop = start + chunk_size
            chunk = rx_signal[start:stop]
            chunk_clock = self.device.core.clock if tel is not None else 0
            try:
                out = self.device.process(chunk, tx_out=tx[start:stop])
            except StreamError as exc:
                if degradation is DegradationPolicy.FAIL_FAST:
                    raise
                health.chunks_skipped += 1
                health.samples_skipped += chunk.size
                health.stream_errors.append(str(exc))
                self.device.skip(chunk.size)
                if tel is not None:
                    tel.tracer.instant("run.chunk_skipped", CAT_RUN,
                                       chunk_clock, index=index,
                                       error=str(exc))
            else:
                health.chunks_processed += 1
                detections.extend(out.detections)
                jams.extend(out.jams)
                if tel is not None:
                    tel.tracer.span("run.chunk", CAT_RUN, chunk_clock,
                                    self.device.core.clock, index=index,
                                    detections=len(out.detections),
                                    jams=len(out.jams))
            if scrub_every_chunks and (index + 1) % scrub_every_chunks == 0:
                health.scrub_repairs.extend(self.driver.scrub())
        health.driver = self.driver.health.snapshot()
        watchdog = self.device.core.watchdog
        if watchdog is not None:
            health.watchdog_trips = watchdog.report_trips()
        if tel is not None:
            self._record_run_metrics(tel, health, detections, jams,
                                     rx_signal.size, run_start_ns)
            health.metrics = tel.metrics.snapshot()
        return JammingReport(tx=tx, detections=detections, jams=jams,
                             health=health)

    def _record_run_metrics(self, tel: Telemetry, health: HealthReport,
                            detections: list[DetectionEvent],
                            jams: list[JamEvent], total_samples: int,
                            run_start_ns: int) -> None:
        """Fold one run's outcomes into the metrics registry."""
        elapsed_ns = tel.timebase.host_now_ns() - run_start_ns
        metrics = tel.metrics
        metrics.counter("run.chunks").inc(health.chunks_processed)
        metrics.counter("run.chunks_skipped").inc(health.chunks_skipped)
        metrics.counter("run.samples").inc(total_samples)
        metrics.counter("run.detections").inc(len(detections))
        metrics.counter("run.jams").inc(len(jams))
        metrics.counter("driver.write_retries").inc(
            health.driver.get("retries", 0))
        jam_samples = sum(j.end - j.start for j in jams)
        if total_samples:
            metrics.gauge("run.jam_duty_cycle").set(
                jam_samples / total_samples)
        if elapsed_ns > 0:
            # samples/ns is numerically Gsamples/s; x1000 -> Msamples/s.
            metrics.gauge("run.throughput_msps").set(
                total_samples * 1e3 / elapsed_ns)
        response = metrics.histogram("latency.response_ns")
        for jam in jams:
            response.observe(
                tel.timebase.sample_to_ns(jam.start - jam.trigger_time))

    def reset(self) -> None:
        """Reset the data path (configuration registers survive)."""
        self.device.core.reset()
        self.device.ddc.reset()
