"""Every name the end-to-end benchmark's traced pass wraps still exists.

``benchmarks/e2e/workloads.py`` wraps methods and module attributes by
name, and ``StageTracer.wrap`` looks each one up, so deleting any of
them breaks every traced pass.  Each workload's ``trace_layers`` runs
here on freshly built objects and reads the names from the harness
itself; no pass runs.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.tracing import StageTracer
from benchmarks.e2e.workloads import WORKLOADS, StreamWorkload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_layers_finds_every_name(name):
    workload = WORKLOADS[name]()
    tracer = StageTracer()
    try:
        if isinstance(workload, StreamWorkload):
            workload.trace_layers(tracer, workload.build())
        else:
            workload.trace_layers(tracer)
    finally:
        tracer.close()
    assert tracer.stages
