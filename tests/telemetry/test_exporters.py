"""Tests for the JSONL, Chrome trace-event, and text exporters."""

from __future__ import annotations

import json

from repro.telemetry.exporters import (
    chrome_trace_events,
    events_to_jsonl,
    text_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import (
    CAT_DETECTOR,
    CAT_HOST,
    CAT_RUN,
    CAT_TX,
    RingTracer,
)

#: A raw ``perf_counter_ns`` reading: about 14.6 h after its epoch.
HOST_EPOCH_NS = 52_500_000_000_000


def _sample_tracer() -> RingTracer:
    tracer = RingTracer()
    tracer.instant("detect.xcorr", CAT_DETECTOR, 2500)
    tracer.span("jam", CAT_TX, 2565, 5065, trigger_sample=2563,
                waveform="WGN")
    tracer.host_span("xcorr", CAT_HOST, 1_000, 51_000)
    return tracer


class TestJsonl:
    def test_one_object_per_line(self):
        text = events_to_jsonl(_sample_tracer().events())
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["type"] for r in records] == ["instant", "span", "span"]
        assert records[0]["sample"] == 2500
        assert records[1]["args"]["trigger_sample"] == 2563
        assert records[2]["host"] is True

    def test_write_jsonl(self, tmp_path):
        path = write_jsonl(_sample_tracer().events(), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3

    def test_empty_trace_writes_empty_file(self, tmp_path):
        path = write_jsonl([], tmp_path / "empty.jsonl")
        assert path.read_text() == ""


class TestChromeTrace:
    def test_phases_and_timestamps(self):
        trace = chrome_trace_events(_sample_tracer().events())
        metadata = [e for e in trace if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metadata} \
            == {CAT_DETECTOR, CAT_TX, CAT_HOST}
        instant = next(e for e in trace if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["ts"] == 100.0  # sample 2500 -> 100 us
        span = next(e for e in trace if e["ph"] == "X" and e["name"] == "jam")
        assert span["dur"] == 100.0  # 2500 samples -> 100 us
        assert span["args"]["start_sample"] == 2565

    def test_host_spans_rebase_to_the_earliest_host_span(self):
        tracer = RingTracer()
        tracer.span("run.chunk", CAT_RUN, 0, 8192)
        tracer.host_span("hw.ddc", CAT_HOST, HOST_EPOCH_NS + 3_000,
                         HOST_EPOCH_NS + 5_000)
        tracer.host_span("hw.duc", CAT_HOST, HOST_EPOCH_NS + 1_000,
                         HOST_EPOCH_NS + 1_500)
        trace = chrome_trace_events(tracer.events())
        spans = {e["name"]: (e["ts"], e["dur"]) for e in trace
                 if e["ph"] == "X"}
        assert spans == {"run.chunk": (0.0, 327.68),
                         "hw.ddc": (2.0, 2.0), "hw.duc": (0.0, 0.5)}
        # JSONL keeps the host clock's raw nanoseconds.
        records = [json.loads(line) for line
                   in events_to_jsonl(tracer.events()).splitlines()]
        assert records[1]["start_ns"] == HOST_EPOCH_NS + 3_000

    def test_categories_map_to_stable_tids(self):
        trace = chrome_trace_events(_sample_tracer().events())
        tids = {e["cat"]: e["tid"] for e in trace if e["ph"] != "M"}
        assert len(set(tids.values())) == len(tids)

    def test_written_file_is_loadable(self, tmp_path):
        path = write_chrome_trace(_sample_tracer().events(),
                                  tmp_path / "t.json")
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ns"
        assert len(document["traceEvents"]) == 6  # 3 metadata + 3 events


class TestTextSummary:
    def test_counts_by_category_and_name(self):
        text = text_summary(_sample_tracer().events())
        assert "3 events retained" in text
        assert "detector/detect.xcorr" in text
        assert "tx/jam" in text

    def test_mentions_drops_and_metrics(self):
        metrics = MetricsRegistry()
        metrics.counter("run.chunks").inc(7)
        text = text_summary(_sample_tracer().events(), metrics, dropped=5)
        assert "5 dropped" in text
        assert "run.chunks" in text
