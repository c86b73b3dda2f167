"""Tests for counters, gauges, histograms, and the registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotone(self):
        counter = MetricsRegistry().counter("run.chunks")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)


class TestHistogram:
    def test_bucketing_and_accumulators(self):
        hist = Histogram("lat", bounds=(10.0, 100.0))
        for value in (5, 10, 50, 500):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=10, <=100, overflow
        assert hist.count == 4
        assert hist.min == 5.0
        assert hist.max == 500.0
        assert hist.mean == pytest.approx(141.25)

    def test_quantile_is_bucket_resolution(self):
        hist = Histogram("lat", bounds=(10.0, 100.0))
        for value in (1, 2, 3, 50):
            hist.observe(value)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 100.0
        assert hist.quantile(0.0) == 10.0

    def test_overflow_quantile_reports_max(self):
        hist = Histogram("lat", bounds=(10.0,))
        hist.observe(99.0)
        assert hist.quantile(0.9) == 99.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=(100.0, 10.0))
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=())

    def test_snapshot_shape(self):
        hist = Histogram("lat", bounds=DEFAULT_LATENCY_BUCKETS_NS)
        hist.observe(40.0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert sum(snap["counts"]) == 1
        assert len(snap["counts"]) == len(snap["bounds"]) + 1


class TestRegistry:
    def test_get_or_create(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.gauge("b") is metrics.gauge("b")
        assert metrics.histogram("c") is metrics.histogram("c")

    def test_histogram_bounds_conflict(self):
        metrics = MetricsRegistry()
        metrics.histogram("lat", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            metrics.histogram("lat", bounds=(1.0, 3.0))

    def test_snapshot_is_plain_data(self):
        import json

        metrics = MetricsRegistry()
        metrics.counter("runs").inc()
        metrics.gauge("duty").set(0.25)
        metrics.histogram("lat").observe(80.0)
        snap = metrics.snapshot()
        assert snap["counters"]["runs"] == 1
        assert snap["gauges"]["duty"] == 0.25
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_summary_mentions_every_metric(self):
        metrics = MetricsRegistry()
        metrics.counter("runs").inc()
        metrics.gauge("duty").set(0.5)
        metrics.histogram("lat").observe(80.0)
        text = metrics.summary()
        for name in ("runs", "duty", "lat"):
            assert name in text
