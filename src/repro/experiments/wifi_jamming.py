"""WiFi network validation (paper §4, Figs. 10 and 11).

Recreates the experimental setup of Fig. 9 on the MAC plane: a
Linksys-class AP on port 1, a wireless client on port 2, and the
jammer transmitting on port 4 / receiving on port 5 of the 5-port
network, all path losses from Table 1.  Each sweep point runs an
iperf UDP bandwidth test at a jammer transmit power chosen to realize
the target SIR at the access point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.channel.splitter import FivePortNetwork
from repro.core.presets import JammerPersonality, paper_personalities
from repro.errors import ConfigurationError
from repro.mac.iperf import IperfReport, UdpBandwidthTest
from repro.mac.medium import Medium
from repro.mac.nodes import AccessPoint, JammerNode, Station
from repro.mac.simkernel import SimKernel
from repro.runtime.jobs import ResilienceConfig, resilient_sweep

if TYPE_CHECKING:
    from repro.faults.workers import WorkerFaultInjector
    from repro.telemetry.session import Telemetry

#: Node-name to network-port assignment (paper Fig. 9).  The jammer
#: transmits on port 4 and listens on port 5.
DEFAULT_PORTS = {"ap": 1, "client": 2, "scope": 3}
JAMMER_TX_PORT = 4
JAMMER_RX_PORT = 5

#: The paper's SIR sweep range (dB at the access point), descending as
#: plotted ("the jamming power increases from left to right").
PAPER_SIR_SWEEP_DB = [45.0, 40.0, 35.0, 33.85, 30.0, 25.0, 20.0,
                      15.94, 12.0, 8.0, 4.0, 2.79, 0.0]


@dataclass(frozen=True)
class JammingSweepPoint:
    """One (personality, SIR) operating point's iperf results."""

    personality: str
    sir_at_ap_db: float | None
    jammer_tx_dbm: float | None
    report: IperfReport
    connection_lost: bool = False

    @property
    def bandwidth_kbps(self) -> float:
        """Fig. 10's y-value."""
        return self.report.bandwidth_kbps

    @property
    def packet_reception_ratio(self) -> float:
        """Fig. 11's y-value."""
        return self.report.packet_reception_ratio


@dataclass
class WifiJammingTestbed:
    """The wired 5-port testbed with its power bookkeeping.

    Attributes:
        network: The splitter network (Table 1 by default).
        client_tx_dbm: Client transmit power (a 2014 laptop radio).
        ap_tx_dbm: AP transmit power (the WRT54GL runs hotter).
        duration_s: iperf interval per point (the paper uses 60 s;
            tests and benches shrink this — the statistics converge in
            well under a second of simulated traffic).
    """

    network: FivePortNetwork = field(default_factory=FivePortNetwork)
    client_tx_dbm: float = 14.0
    ap_tx_dbm: float = 20.0
    duration_s: float = 1.0
    #: Enable AP beacons + client association tracking; reproduces the
    #: paper's "connection to the access point was lost" observation.
    beacons: bool = False
    beacon_interval_s: float = 0.02
    beacon_loss_count: int = 4

    def path_loss_db(self, src: str, dst: str) -> float | None:
        """Path loss between named nodes through the 5-port network."""
        src_port = JAMMER_TX_PORT if src == "jammer" else DEFAULT_PORTS.get(src)
        dst_port = JAMMER_RX_PORT if dst == "jammer" else DEFAULT_PORTS.get(dst)
        if src_port is None or dst_port is None:
            return None
        return self.network.loss_db(src_port, dst_port)

    # ------------------------------------------------------------------
    # Power arithmetic

    def client_power_at_ap_dbm(self) -> float:
        """Received power of client frames at the AP."""
        loss = self.path_loss_db("client", "ap")
        if loss is None:
            raise ConfigurationError("client and AP are isolated")
        return self.client_tx_dbm + loss

    def jammer_tx_for_sir(self, sir_db: float) -> float:
        """Jammer TX power realizing a target SIR at the AP.

        SIR is defined as the paper measures it: client signal power
        at the AP over jammer power at the AP during a burst.
        """
        jam_loss = self.path_loss_db("jammer", "ap")
        if jam_loss is None:
            raise ConfigurationError("jammer TX and AP are isolated")
        return self.client_power_at_ap_dbm() - sir_db - jam_loss

    # ------------------------------------------------------------------
    # Runs

    def run_point(self, personality: JammerPersonality | None,
                  sir_db: float | None, seed: int = 1) -> JammingSweepPoint:
        """One iperf interval under one jammer setting."""
        if (personality is None) != (sir_db is None):
            raise ConfigurationError(
                "personality and sir_db must both be set or both be None"
            )
        rng = np.random.default_rng(seed)
        kernel = SimKernel()
        medium = Medium(self.path_loss_db)
        ap = AccessPoint("ap", kernel, medium, rng,
                         tx_power_dbm=self.ap_tx_dbm)
        client = Station("client", kernel, medium, ap, rng,
                         tx_power_dbm=self.client_tx_dbm)
        if self.beacons:
            ap.register_station(client)
            ap.start_beacons(self.beacon_interval_s)
            client.track_beacons(
                self.beacon_loss_count * self.beacon_interval_s)
        jam_tx_dbm: float | None = None
        if personality is not None and sir_db is not None:
            jam_tx_dbm = self.jammer_tx_for_sir(sir_db)
            jammer = JammerNode("jammer", kernel, medium, personality,
                                tx_power_dbm=jam_tx_dbm)
            jammer.start(self.duration_s)
        test = UdpBandwidthTest(kernel, client, ap)
        report = test.run(self.duration_s)
        return JammingSweepPoint(
            personality=personality.name if personality else "off",
            sir_at_ap_db=sir_db, jammer_tx_dbm=jam_tx_dbm, report=report,
            connection_lost=client.connection_losses > 0,
        )

    def sweep(self, sir_values_db: list[float] | None = None,
              personalities: list[JammerPersonality] | None = None,
              seed: int = 1, workers: int = 1,
              telemetry: "Telemetry | None" = None,
              resilience: "ResilienceConfig | None" = None,
              fault_injector: "WorkerFaultInjector | None" = None
              ) -> list[JammingSweepPoint]:
        """Figs. 10/11: the full personality x SIR grid plus jammer-off.

        Every grid point already seeds its own generator inside
        :meth:`run_point`, so fanning the grid out over ``workers``
        processes returns byte-identical results to the serial run —
        the grid rides the fault-tolerant job layer
        (:func:`repro.runtime.jobs.resilient_sweep`), so a crashed or
        hung worker costs a retry, not the sweep, and a checkpointed
        run resumes from its completed shards.
        """
        sir_values_db = sir_values_db if sir_values_db is not None \
            else PAPER_SIR_SWEEP_DB
        personalities = personalities if personalities is not None \
            else paper_personalities()
        grid: list[tuple[WifiJammingTestbed,
                         JammerPersonality | None, float | None, int]] = [
            (self, None, None, seed)
        ]
        grid.extend((self, personality, sir_db, seed)
                    for personality in personalities
                    for sir_db in sir_values_db)
        groups = resilient_sweep(
            _sweep_point_task, grid, workers=workers, seed_root=seed,
            telemetry=telemetry, config=resilience,
            fault_injector=fault_injector)
        return [group[0] for group in groups]


def _sweep_point_task(spec: tuple[WifiJammingTestbed,
                                  JammerPersonality | None,
                                  float | None, int],
                      rng: np.random.Generator) -> JammingSweepPoint:
    """One grid point as a picklable sweep task.

    The sweep-provided ``rng`` is deliberately unused: ``run_point``
    seeds itself from the user-facing ``seed``, which keeps the
    parallel sweep byte-identical to the historical serial loop.
    """
    del rng
    testbed, personality, sir_db, seed = spec
    return testbed.run_point(personality, sir_db, seed=seed)
