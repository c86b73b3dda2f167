"""Per-chunk recovery in ReactiveJammer.run: degradation policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import DegradationPolicy, HealthReport, ReactiveJammer
from repro.core.presets import JammerPersonality, reactive_jammer
from repro.errors import ConfigurationError, StreamError
from repro.faults import FaultPlan, FaultyRegisterBus, NO_FAULTS, StreamFaultInjector
from repro.hw import register_map as regmap
from repro.hw.ddc import DigitalDownConverter
from repro.hw.impairments import TYPICAL_N210
from repro.hw.usrp import UsrpN210
from repro.hw.watchdog import Watchdog, WatchdogConfig

CHUNK = 1024


def _overrun_plan():
    # ~10 overruns in 50k samples, deterministic.
    return FaultPlan(seed=21).overruns(200, duration_samples=96)


def _configure(jammer, template):
    jammer.configure(
        detection=DetectionConfig(template=template, xcorr_threshold=30_000),
        events=JammingEventBuilder().on_correlation(),
        personality=reactive_jammer(uptime_seconds=1e-5),
    )


@pytest.fixture
def template(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


def _signal(template, rng, n=50_000, burst_at=40_000):
    signal = (rng.normal(0, 1e-3, n) + 1j * rng.normal(0, 1e-3, n))
    signal[burst_at:burst_at + template.size] += template
    return signal.astype(np.complex128)


def test_fail_fast_reraises(template, rng):
    injector = StreamFaultInjector(_overrun_plan(), raise_on_overrun=True)
    jammer = ReactiveJammer(stream_faults=injector)
    _configure(jammer, template)
    with pytest.raises(StreamError, match="overrun"):
        jammer.run(_signal(template, rng), chunk_size=CHUNK)


def test_skip_and_log_survives_and_accounts(template, rng):
    injector = StreamFaultInjector(_overrun_plan(), raise_on_overrun=True)
    jammer = ReactiveJammer(stream_faults=injector)
    _configure(jammer, template)
    signal = _signal(template, rng, n=50 * CHUNK)
    report = jammer.run(signal, chunk_size=CHUNK,
                        degradation=DegradationPolicy.SKIP_AND_LOG)
    health = report.health
    assert health.chunks_skipped > 0
    assert health.samples_skipped == health.chunks_skipped * CHUNK
    assert len(health.stream_errors) == health.chunks_skipped
    assert all("overrun" in msg for msg in health.stream_errors)
    assert health.degraded
    # The transmit waveform covers the full input span: skipped chunks
    # contribute silence, not a shortened timeline.
    assert report.tx.size == signal.size
    total = health.chunks_processed + health.chunks_skipped
    assert total == -(-signal.size // CHUNK)


def test_skipped_chunks_keep_timeline_aligned(template, rng):
    """A detection after a skipped chunk lands at its true sample time."""
    injector = StreamFaultInjector(_overrun_plan(), raise_on_overrun=True)
    jammer = ReactiveJammer(stream_faults=injector)
    _configure(jammer, template)
    burst_at = 40_000
    signal = _signal(template, rng, burst_at=burst_at)
    report = jammer.run(signal, chunk_size=CHUNK,
                        degradation=DegradationPolicy.SKIP_AND_LOG)
    assert report.health.chunks_skipped > 0
    assert report.detections
    assert any(burst_at <= d.time < burst_at + template.size + 128
               for d in report.detections)


def test_scrub_during_run_repairs_upsets(template, rng):
    bus = FaultyRegisterBus(NO_FAULTS)
    jammer = ReactiveJammer(UsrpN210(bus=bus))
    _configure(jammer, template)
    bus.upset(regmap.REG_XCORR_THRESHOLD, 0xFFFF_FFFF)
    report = jammer.run(_signal(template, rng), chunk_size=CHUNK,
                        scrub_every_chunks=1)
    assert regmap.REG_XCORR_THRESHOLD in report.health.scrub_repairs
    assert report.health.degraded
    # The repaired threshold was back in place for the burst at 40k.
    assert report.detections


def test_clean_run_is_not_degraded(template, rng):
    jammer = ReactiveJammer()
    _configure(jammer, template)
    report = jammer.run(_signal(template, rng), chunk_size=CHUNK)
    assert report.health.chunks_processed > 0
    assert report.health.chunks_skipped == 0
    assert not report.health.degraded
    assert report.health.driver["writes"] > 0


def test_watchdog_trips_surface_in_health(template, rng):
    jammer = ReactiveJammer(watchdog=Watchdog())
    _configure(jammer, template)
    jammer.device.core.watchdog.flag_illegal(21, time=0, detail="planted")
    report = jammer.run(_signal(template, rng, n=4096, burst_at=1024),
                        chunk_size=CHUNK)
    assert report.health.watchdog_trips
    assert report.health.degraded


def test_each_report_carries_its_own_trips(template, rng):
    """Three runs through one jammer, no reset between them: each
    report holds its own run's duty-guard vetoes, not every earlier
    run's, and a later run that needed no intervention is clean."""
    jammer = ReactiveJammer(watchdog=Watchdog(WatchdogConfig(
        max_duty_cycle=0.5, duty_window_samples=1000)))
    jammer.configure(
        detection=DetectionConfig(template=template, xcorr_threshold=30_000),
        events=JammingEventBuilder().on_correlation(),
        personality=JammerPersonality(name="guarded", uptime_samples=400))
    signal = _signal(template, rng, n=3000, burst_at=0)
    signal[1000:1000 + template.size] += template
    reports = [jammer.run(signal, chunk_size=CHUNK) for _ in range(3)]
    assert [len(report.health.watchdog_trips) for report in reports] \
        == [1, 1, 1]
    for run, report in enumerate(reports):
        [trip] = report.health.watchdog_trips
        assert trip.time == 3000 * run + 1065
    assert len(jammer.device.core.watchdog.trips) == 3
    quiet = jammer.run(np.zeros(3000, dtype=np.complex128), chunk_size=CHUNK)
    assert quiet.health.watchdog_trips == []
    assert not quiet.health.degraded


def test_device_conflicts_with_wiring_kwargs():
    with pytest.raises(ConfigurationError):
        ReactiveJammer(UsrpN210(), watchdog=Watchdog())
    with pytest.raises(ConfigurationError):
        ReactiveJammer(UsrpN210(),
                       stream_faults=StreamFaultInjector(NO_FAULTS))


def test_run_argument_validation(template, rng):
    jammer = ReactiveJammer()
    _configure(jammer, template)
    with pytest.raises(ConfigurationError):
        jammer.run(np.zeros(8, dtype=complex), chunk_size=0)
    with pytest.raises(ConfigurationError):
        jammer.run(np.zeros(8, dtype=complex), scrub_every_chunks=-1)


def test_health_report_defaults():
    assert not HealthReport().degraded


def _with_nan(signal: np.ndarray, chunk: int) -> np.ndarray:
    """``signal`` with one NaN sample planted inside chunk ``chunk``."""
    poisoned = signal.copy()
    poisoned[chunk * CHUNK + 100] = complex(np.nan, 0.0)
    return poisoned


def test_nan_sample_fails_fast(template, rng):
    jammer = ReactiveJammer()
    _configure(jammer, template)
    with pytest.raises(StreamError, match="NaN"):
        jammer.run(_with_nan(_signal(template, rng), 3), chunk_size=CHUNK)


def test_nan_sample_is_skipped_and_logged(template, rng):
    signal = _signal(template, rng)
    clean = ReactiveJammer()
    _configure(clean, template)
    expected = clean.run(signal, chunk_size=CHUNK)

    jammer = ReactiveJammer()
    _configure(jammer, template)
    report = jammer.run(_with_nan(signal, 3), chunk_size=CHUNK,
                        degradation=DegradationPolicy.SKIP_AND_LOG)
    assert report.health.chunks_skipped == 1
    assert report.health.samples_skipped == CHUNK
    assert "NaN" in report.health.stream_errors[0]
    assert jammer.device.core.clock == signal.size
    # The NaN never reached the energy detector's carried state: the
    # burst at 40k is detected and jammed exactly as without the gap.
    assert report.detections == expected.detections
    assert report.jams == expected.jams
    assert np.all(np.isfinite(report.tx))


def test_core_rejects_nan_before_touching_state(template, rng):
    jammer = ReactiveJammer()
    _configure(jammer, template)
    core = jammer.device.core
    chunk = np.full(64, 0.1 + 0.1j)
    chunk[7] = complex(0.0, np.nan)
    with pytest.raises(StreamError):
        core.process(chunk)
    assert core.clock == 0


def test_skip_after_rejected_chunk_keeps_every_clock_aligned(template, rng):
    """A chunk the DDC rejects has passed the fault stage and the CFO
    rotation already; skipping it advances each exactly once."""
    signal = _with_nan(_signal(template, rng, n=8 * CHUNK, burst_at=0), 2)
    injector = StreamFaultInjector(NO_FAULTS)
    jammer = ReactiveJammer(stream_faults=injector)
    _configure(jammer, template)
    jammer.device.ddc.impairments = TYPICAL_N210
    baseband = []
    ddc_process = jammer.device.ddc.process

    def recording(samples, out=None):
        out = ddc_process(samples, out=out)
        # The device reuses its baseband buffer chunk to chunk.
        baseband.append(out.copy())
        return out

    jammer.device.ddc.process = recording
    jammer.run(signal, chunk_size=CHUNK,
               degradation=DegradationPolicy.SKIP_AND_LOG)
    assert injector.clock == jammer.device.core.clock == signal.size

    reference = DigitalDownConverter(impairments=TYPICAL_N210)
    clean = np.nan_to_num(signal)
    expected = [reference.process(clean[start:start + CHUNK])
                for start in range(0, signal.size, CHUNK)]
    del expected[2]
    assert [b.tobytes() for b in baseband] == [e.tobytes() for e in expected]
