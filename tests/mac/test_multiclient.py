"""Multi-station DCF: contention, fairness, and jamming impact."""

from __future__ import annotations

import numpy as np

from repro.core.presets import reactive_jammer
from repro.mac.iperf import UdpBandwidthTest
from repro.mac.medium import Medium
from repro.mac.nodes import AccessPoint, JammerNode, Station
from repro.mac.simkernel import SimKernel

LOSSES = {
    ("ap", "c1"): -51.0, ("c1", "ap"): -51.0,
    ("ap", "c2"): -51.0, ("c2", "ap"): -51.0,
    ("c1", "c2"): -55.0, ("c2", "c1"): -55.0,
    ("jammer", "ap"): -38.4, ("ap", "jammer"): -39.3,
    ("jammer", "c1"): -32.0, ("c1", "jammer"): -32.8,
    ("jammer", "c2"): -32.0, ("c2", "jammer"): -32.8,
}


def path_loss(src: str, dst: str) -> float | None:
    return LOSSES.get((src, dst))


def build_two_clients(seed: int = 4):
    rng = np.random.default_rng(seed)
    kernel = SimKernel()
    medium = Medium(path_loss)
    ap = AccessPoint("ap", kernel, medium, rng, tx_power_dbm=20.0)
    c1 = Station("c1", kernel, medium, ap, rng, tx_power_dbm=14.0)
    c2 = Station("c2", kernel, medium, ap, rng, tx_power_dbm=14.0)
    return kernel, medium, ap, c1, c2, rng


class TestContention:
    def test_two_saturated_clients_share_the_channel(self):
        kernel, _medium, ap, c1, c2, _rng = build_two_clients()
        t1 = UdpBandwidthTest(kernel, c1, ap, offered_mbps=54.0)
        t2 = UdpBandwidthTest(kernel, c2, ap, offered_mbps=54.0)
        # Drive both tests manually: start both offer loops, run once.
        t1._stop_time = 0.4
        t2._stop_time = 0.4
        kernel.schedule(0.0, t1._offer)
        kernel.schedule(0.0, t2._offer)
        kernel.run_until(0.4)

        d1 = c1.stats.delivered
        d2 = c2.stats.delivered
        total_mbps = (c1.stats.delivered_payload_bytes
                      + c2.stats.delivered_payload_bytes) * 8 / 0.4 / 1e6
        # The pair saturates the channel roughly like a single client
        # (collisions cost a little), and shares it fairly.
        assert 20.0 < total_mbps < 33.0
        assert d1 > 0 and d2 > 0
        assert 0.6 < d1 / d2 < 1.67

    def test_light_loads_coexist_without_loss(self):
        kernel, _medium, ap, c1, c2, _rng = build_two_clients()
        t1 = UdpBandwidthTest(kernel, c1, ap, offered_mbps=3.0)
        t2 = UdpBandwidthTest(kernel, c2, ap, offered_mbps=3.0)
        t1._stop_time = 0.3
        t2._stop_time = 0.3
        kernel.schedule(0.0, t1._offer)
        kernel.schedule(0.0, t2._offer)
        kernel.run_until(0.3)
        # Both far below capacity: every accepted datagram delivered.
        for station in (c1, c2):
            assert station.stats.retry_drops == 0
            assert station.stats.delivered >= station.stats.sent - station.backlog

    def test_jammer_kills_both_clients(self):
        kernel, medium, ap, c1, c2, _rng = build_two_clients()
        JammerNode("jammer", kernel, medium, reactive_jammer(1e-4),
                   tx_power_dbm=5.0).start(0.3)
        t1 = UdpBandwidthTest(kernel, c1, ap, offered_mbps=10.0)
        t2 = UdpBandwidthTest(kernel, c2, ap, offered_mbps=10.0)
        t1._stop_time = 0.3
        t2._stop_time = 0.3
        kernel.schedule(0.0, t1._offer)
        kernel.schedule(0.0, t2._offer)
        kernel.run_until(0.3)
        assert ap.received_datagrams == 0

    def test_collisions_are_possible_but_recovered(self):
        # With two saturated stations, retries happen yet goodput
        # remains high: the binary exponential backoff resolves them.
        kernel, _medium, ap, c1, c2, _rng = build_two_clients(seed=9)
        t1 = UdpBandwidthTest(kernel, c1, ap, offered_mbps=54.0)
        t2 = UdpBandwidthTest(kernel, c2, ap, offered_mbps=54.0)
        t1._stop_time = 0.3
        t2._stop_time = 0.3
        kernel.schedule(0.0, t1._offer)
        kernel.schedule(0.0, t2._offer)
        kernel.run_until(0.3)
        attempts = c1.stats.attempts + c2.stats.attempts
        delivered = c1.stats.delivered + c2.stats.delivered
        assert attempts > delivered          # some retransmissions
        assert delivered / attempts > 0.5    # but mostly first-try
