"""Telemetry bundle wiring, plus the Fig. 5 closed-loop integration.

The integration test is the acceptance gate for the subsystem: a full
:class:`ReactiveJammer` run over a WiFi short-preamble waveform must
produce a trace whose *measured* detection and response latencies pass
:class:`LatencyBudget.verify` against the paper's analytic budget
(energy <= 1.28 us, cross-correlation = 2.56 us, init = 80 ns).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import units
from repro.channel.combining import Transmission, mix_at_port
from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.telemetry import Telemetry
from repro.telemetry.tracer import (
    CAT_DETECTOR,
    CAT_FSM,
    CAT_HOST,
    CAT_RUN,
    CAT_TX,
    NULL_TRACER,
)

#: Injected WiFi frame starts: 100 us + k * 500 us at 25 MSPS.
FRAME_STARTS = [2500, 15000, 27500]


def _wifi_capture() -> np.ndarray:
    from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
    from repro.phy.wifi.params import WIFI_SAMPLE_RATE

    rng = np.random.default_rng(99)
    noise = 1e-4
    power = units.db_to_linear(15.0) * noise
    psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
    frames = [Transmission(build_ppdu(psdu, WifiFrameConfig()),
                           WIFI_SAMPLE_RATE, start / units.BASEBAND_RATE,
                           power)
              for start in FRAME_STARTS]
    return mix_at_port(frames, units.BASEBAND_RATE, 1.6e-3,
                       noise_power=noise, rng=rng)


def _configured_jammer(telemetry: Telemetry | None) -> ReactiveJammer:
    jammer = ReactiveJammer(telemetry=telemetry)
    jammer.configure(
        detection=DetectionConfig(template=wifi_short_preamble_template(),
                                  xcorr_threshold=20000),
        events=JammingEventBuilder().on_correlation(),
        personality=reactive_jammer(1e-5),
    )
    return jammer


class TestAttach:
    def test_attach_reaches_every_probe_point(self):
        telemetry = Telemetry()
        jammer = ReactiveJammer(telemetry=telemetry)
        assert jammer.device.core.tracer is telemetry.tracer
        assert jammer.device.core.fsm.tracer is telemetry.tracer
        assert jammer.device.core.watchdog is None \
            or jammer.device.core.watchdog.tracer is telemetry.tracer
        assert jammer.device.core.profiler is telemetry.profiler
        assert jammer.device.profiler is telemetry.profiler
        assert jammer.driver.tracer is telemetry.tracer

    def test_fsm_rebuild_keeps_the_tracer(self):
        telemetry = Telemetry()
        jammer = _configured_jammer(telemetry)
        # configure() rewrites the trigger register, rebuilding the FSM.
        assert jammer.device.core.fsm.tracer is telemetry.tracer

    def test_disabled_bundle_leaves_probes_null(self):
        telemetry = Telemetry.disabled()
        jammer = ReactiveJammer(telemetry=telemetry)
        core = jammer.device.core
        assert core.tracer is NULL_TRACER
        assert core.profiler is None
        assert jammer.device.profiler is None
        # No kernels.* or detect.which_protocol.* counter is wired.
        for block in (core.correlator, core.banked, core.energy):
            assert block._metric_chunks is None
            assert block._metric_samples is None
        assert core._protocol_registry is None
        assert telemetry.metrics.snapshot()["counters"] == {}

    def test_no_telemetry_means_null_defaults(self):
        jammer = ReactiveJammer()
        assert jammer.telemetry is None
        assert jammer.device.core.tracer is NULL_TRACER
        assert jammer.device.profiler is None


class TestFig5Integration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        telemetry = Telemetry()
        jammer = _configured_jammer(telemetry)
        report = jammer.run(_wifi_capture(), chunk_size=8192)
        return telemetry, report

    def test_every_frame_detected_and_jammed(self, traced_run):
        _telemetry, report = traced_run
        assert len(report.jams) == len(FRAME_STARTS)

    def test_measured_latencies_pass_the_paper_budget(self, traced_run):
        telemetry, _report = traced_run
        budget = telemetry.budget_report(signal_starts=FRAME_STARTS)
        assert budget.ok, budget.summary()
        names = {check.name for check in budget.checks}
        assert {"detect.xcorr", "detect.energy_high",
                "T_resp(trigger->RF)"} <= names

    def test_trace_covers_every_layer(self, traced_run):
        telemetry, _report = traced_run
        categories = {event.category for event in telemetry.events()}
        assert {CAT_DETECTOR, CAT_FSM, CAT_TX, CAT_RUN, CAT_HOST} \
            <= categories

    def test_chrome_trace_export_is_valid(self, traced_run, tmp_path):
        telemetry, _report = traced_run
        path = telemetry.write_chrome_trace(tmp_path / "fig5.trace.json")
        document = json.loads(path.read_text())
        names = {entry["name"] for entry in document["traceEvents"]}
        assert {"detect.xcorr", "jam", "run.chunk"} <= names

    def test_jsonl_export_round_trips(self, traced_run, tmp_path):
        telemetry, _report = traced_run
        path = telemetry.write_jsonl(tmp_path / "fig5.jsonl")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == len(telemetry.events())

    def test_metrics_fold_into_the_health_report(self, traced_run):
        telemetry, report = traced_run
        counters = report.health.metrics["counters"]
        assert counters["run.jams"] == len(report.jams)
        assert counters["run.detections"] == len(report.detections)
        assert report.health.metrics["gauges"]["run.jam_duty_cycle"] > 0
        histograms = report.health.metrics["histograms"]
        assert histograms["latency.response_ns"]["count"] \
            == len(report.jams)
        assert histograms["host.xcorr_ns"]["count"] > 0

    def test_summary_is_printable(self, traced_run):
        telemetry, _report = traced_run
        text = telemetry.summary()
        assert "detect.xcorr" in text
        assert "run.jams" in text


class TestDisabledRun:
    def test_disabled_run_matches_traced_run(self):
        rx = _wifi_capture()
        traced = _configured_jammer(Telemetry()).run(rx, chunk_size=8192)
        plain = _configured_jammer(None).run(rx, chunk_size=8192)
        assert [j.start for j in traced.jams] == [j.start for j in plain.jams]
        np.testing.assert_array_equal(traced.tx, plain.tx)
        assert plain.health.metrics == {}
