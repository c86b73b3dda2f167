"""Fig. 11 — packet reception ratio vs SIR at the access point.

Same runs as Fig. 10, read out as iperf's loss statistic.  The paper's
PRR cliffs: continuous ~33 dB, reactive 0.1 ms ~16 dB, reactive
0.01 ms ~3 dB, with 100 % PRR when the jammer is off.
"""

from __future__ import annotations

import os

from benchmarks.paper_reference import (
    FIG10_CONTINUOUS_ZERO_SIR,
    FIG10_REACTIVE_001MS_ZERO_SIR,
    FIG10_REACTIVE_01MS_ZERO_SIR,
)
from repro.experiments.wifi_jamming import WifiJammingTestbed

SIRS_DB = [45.0, 35.0, 30.0, 25.0, 20.0, 16.0, 12.0, 8.0, 4.0, 2.0, 0.0]
DURATION_S = 0.25

#: Sweep pool size (each grid point seeds itself, so the sweep
#: result is byte-identical for any worker count).
_WORKERS = max(1, min(4, len(os.sched_getaffinity(0))))


def _run():
    bed = WifiJammingTestbed(duration_s=DURATION_S)
    return bed.sweep(sir_values_db=SIRS_DB, workers=_WORKERS)


def test_bench_fig11_packet_reception_ratio(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)
    series: dict[str, dict[float | None, float]] = {}
    for point in points:
        series.setdefault(point.personality, {})[point.sir_at_ap_db] = \
            point.packet_reception_ratio

    print("\nFig. 11 — packet reception ratio (%) vs SIR at the AP")
    print("SIR(dB)          " + "".join(f"{s:>6.0f}" for s in SIRS_DB))
    for name in ("continuous", "reactive-0.1ms", "reactive-0.01ms"):
        row = "".join(f"{series[name][s] * 100:>6.0f}" for s in SIRS_DB)
        print(f"{name:<17}{row}")
    print(f"jammer off PRR: {series['off'][None]:.2%}")
    print(f"paper zero-PRR SIRs: continuous ~{FIG10_CONTINUOUS_ZERO_SIR:.0f}, "
          f"0.1ms ~{FIG10_REACTIVE_01MS_ZERO_SIR:.0f}, "
          f"0.01ms ~{FIG10_REACTIVE_001MS_ZERO_SIR:.0f} dB")

    assert series["off"][None] > 0.95

    def prr_cliff(name: str) -> float:
        dead = [s for s in SIRS_DB if series[name][s] < 0.02]
        return max(dead) if dead else float("-inf")

    cont = prr_cliff("continuous")
    r01 = prr_cliff("reactive-0.1ms")
    r001 = prr_cliff("reactive-0.01ms")
    assert abs(cont - FIG10_CONTINUOUS_ZERO_SIR) <= 5.0
    assert abs(r01 - FIG10_REACTIVE_01MS_ZERO_SIR) <= 5.0
    assert abs(r001 - FIG10_REACTIVE_001MS_ZERO_SIR) <= 3.0
    assert cont > r01 > r001
    # Above its cliff each reactive jammer leaves the link reliable —
    # the paper's point that reactive jamming is discreet.
    assert series["reactive-0.1ms"][25.0] > 0.9
    assert series["reactive-0.01ms"][8.0] > 0.9
