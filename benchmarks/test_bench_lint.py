"""repro-lint perf budget (CI perf-smoke job).

The whole-program analysis must stay cheap enough to run on every
change: a full project index plus every rule over ``src/`` in under
``MAX_FULL_SCAN_S`` seconds.  A wall-clock upper bound depends on the
host, so it is enforced here rather than in tier-1, where
``tests/analysis/test_repo_clean.py`` asserts the same scan's findings.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis import analyze_paths

SRC = Path(__file__).resolve().parent.parent / "src"

#: Wall-clock ceiling for index + rules over the whole of ``src/``.
MAX_FULL_SCAN_S = 10.0


@pytest.mark.perf
def test_bench_lint_index_plus_rules_under_ten_seconds():
    start = time.perf_counter()
    findings = analyze_paths([SRC])
    elapsed = time.perf_counter() - start
    print(f"\nrepro-lint — full src scan: {elapsed:.2f} s, "
          f"{len(findings)} finding(s)")
    assert elapsed < MAX_FULL_SCAN_S, \
        f"full src analysis took {elapsed:.1f}s (budget {MAX_FULL_SCAN_S}s)"
