"""Smoke test of the end-to-end benchmark (CI perf-smoke job).

Runs every workload at a tiny size through the same harness the
benchmark command uses, traced, and checks that each named metric is
reported with its unit and that every correctness gate passes.  It
also checks that BENCHMARK.json names the workloads and metrics the
harness reports.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e.harness import E2E_METRICS, PER_LAYER_METRICS, measure
from benchmarks.e2e.workloads import (
    WORKLOADS,
    EnergyStorm,
    Fig6Sweep,
    MultistdHotswap,
    WifiStream,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))

TINY = [WifiStream(frames=4), MultistdHotswap(rounds=1),
        EnergyStorm(samples=60_000), Fig6Sweep(frames=50)]

pytestmark = pytest.mark.perf


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        PER_LAYER_METRICS


def test_every_workload_has_a_tiny_case():
    assert sorted(wl.name for wl in TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", TINY, ids=lambda wl: wl.name)
def test_workload_reports_every_metric_and_passes_its_gates(workload):
    record = measure(workload, seed=3, seconds=0.0, trace=True)

    assert record["gates"] and all(
        verdict == "ok" for verdict in record["gates"].values()), \
        record["gates"]
    assert record["correct"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert len(record["digest"]) == 64
    for name, unit in E2E_METRICS.items():
        metric = record["e2e"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
        assert metric["n"] >= 1
    assert set(record["per_layer"]) == set(PER_LAYER_METRICS)
    for name, unit in PER_LAYER_METRICS.items():
        assert record["per_layer"][name]["unit"] == unit
    assert record["per_layer"]["stage_coverage_frac"]["value"] >= 0.95
