"""Attack-vs-detect tournaments over the Fig. 10/11 harness.

One *trial* plays both chairs of the game on the wired 5-port
testbed: a clean iperf interval (victim network only) and a jammed
interval (same network plus a policy-gated reactive jammer), each
observed by a :class:`~repro.defense.features.LinkTraceRecorder` at
the access point.  The windows of the clean interval are labelled 0,
the jammed interval's 1, and the resulting dataset is what every
detector is trained and ROC-scored on.

A *tournament* sweeps a (policy x detector) grid: the policy axis
rides :func:`repro.runtime.jobs.resilient_sweep` — trials are seeded
by grid position, so results are byte-identical for any worker count
and across checkpoint resumes — and the detector axis is evaluated on
the gathered windows with seeded fits.  The output is the An & Weber
curve this whole subsystem exists to measure: per-policy jamming
efficiency (disruption bought per unit of transmitted airtime)
against per-detector AUC (how visible the policy is from the victim's
chair).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.presets import continuous_jammer, reactive_jammer
from repro.defense.detectors import Detector, default_detectors
from repro.defense.features import FEATURE_NAMES, LinkTraceRecorder
from repro.defense.policies import (
    ALWAYS_JAM,
    JamPolicy,
    RandomizedJammerNode,
)
from repro.defense.roc import RocCurve, roc_curve
from repro.errors import ConfigurationError
from repro.experiments.wifi_jamming import WifiJammingTestbed
from repro.mac.iperf import UdpBandwidthTest
from repro.mac.medium import Medium
from repro.mac.nodes import AccessPoint, JammerNode, Station
from repro.mac.simkernel import SimKernel
from repro.runtime.jobs import ResilienceConfig, resilient_sweep

if TYPE_CHECKING:
    from repro.faults.workers import WorkerFaultInjector
    from repro.telemetry.session import Telemetry

#: Telemetry counter names folded into an attached MetricsRegistry.
RUNS_COUNTER = "defense.tournament.runs"
TRIALS_COUNTER = "defense.tournament.trials"
WINDOWS_COUNTER = "defense.tournament.windows"
CELLS_COUNTER = "defense.tournament.cells"

#: Seed-sequence domain tag for detector-fit substreams (keeps fits
#: decoupled from the trial streams resilient_sweep hands out).
_FIT_DOMAIN = 0xDEF1


@dataclass(frozen=True)
class DefenseScenario:
    """A Fig. 10-style victim network for one tournament.

    Attributes:
        kind: ``"reactive"`` (policy-gated burst jammer) or
            ``"constant"`` (always-on carrier; only the deterministic
            :data:`~repro.defense.policies.ALWAYS_JAM` policy applies).
        sir_db: Signal-to-jammer ratio at the AP, as the paper sweeps.
        uptime_s: Reactive burst length after each trigger.
        duration_s: Length of each observed iperf interval.
        window_s: Feature-window length the trace is cut into.
        offered_mbps: Offered UDP load.  Deliberately light (a few
            frames per window) — sparse traffic is where randomized
            policies actually hide, which is the regime the
            detectability tradeoff is about.
        cca_sample_interval_s: CCA sampling period of the monitor.
    """

    kind: str = "reactive"
    sir_db: float = 10.0
    uptime_s: float = 1e-4
    duration_s: float = 0.24
    window_s: float = 0.01
    offered_mbps: float = 1.0
    cca_sample_interval_s: float = 5e-4

    def __post_init__(self) -> None:
        if self.kind not in ("reactive", "constant"):
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r} (reactive|constant)")
        if self.duration_s < self.window_s:
            raise ConfigurationError(
                "duration_s must cover at least one window")

    @property
    def windows_per_run(self) -> int:
        """Feature windows each observed interval yields."""
        return int(self.duration_s / self.window_s + 0.5)


@dataclass(frozen=True)
class TrialObservation:
    """What one (clean, jammed) interval pair contributed.

    ``features`` rows follow :data:`~repro.defense.features.FEATURE_NAMES`;
    ``labels`` is 0 for clean-interval windows, 1 for jammed.
    """

    features: np.ndarray
    labels: np.ndarray
    clean_prr: float
    jammed_prr: float
    jam_airtime_s: float
    jam_bursts: int
    triggers_seen: int
    duration_s: float


def _observe_interval(scenario: DefenseScenario,
                      policy: JamPolicy | None,
                      rng: np.random.Generator
                      ) -> tuple[list, float, float, int, int]:
    """One iperf interval; returns (windows, prr, airtime, bursts, triggers)."""
    bed = WifiJammingTestbed(duration_s=scenario.duration_s)
    kernel = SimKernel()
    medium = Medium(bed.path_loss_db)
    ap = AccessPoint("ap", kernel, medium, rng, tx_power_dbm=bed.ap_tx_dbm)
    client = Station("client", kernel, medium, ap, rng,
                     tx_power_dbm=bed.client_tx_dbm)
    recorder = LinkTraceRecorder(
        kernel, medium, ap,
        cca_sample_interval_s=scenario.cca_sample_interval_s)
    recorder.start(scenario.duration_s)
    airtime = 0.0
    bursts = 0
    triggers = 0
    jammer: JammerNode | None = None
    if policy is not None:
        jam_tx_dbm = bed.jammer_tx_for_sir(scenario.sir_db)
        if scenario.kind == "constant":
            if policy.randomized:
                raise ConfigurationError(
                    "constant-jammer scenarios take only the "
                    "deterministic ALWAYS_JAM policy")
            jammer = JammerNode("jammer", kernel, medium,
                                continuous_jammer(), tx_power_dbm=jam_tx_dbm)
        else:
            jammer = RandomizedJammerNode(
                "jammer", kernel, medium,
                reactive_jammer(scenario.uptime_s),
                tx_power_dbm=jam_tx_dbm, policy=policy, rng=rng)
        jammer.start(scenario.duration_s)
    report = UdpBandwidthTest(
        kernel, client, ap,
        offered_mbps=scenario.offered_mbps).run(scenario.duration_s)
    if isinstance(jammer, RandomizedJammerNode):
        airtime = jammer.jam_airtime_s
        bursts = jammer.bursts
        triggers = jammer.gate.triggers_seen
    elif jammer is not None:
        airtime = scenario.duration_s
        bursts = jammer.bursts
    windows = recorder.windows(scenario.window_s)
    return windows, report.packet_reception_ratio, airtime, bursts, triggers


def run_trial(scenario: DefenseScenario, policy: JamPolicy,
              rng: np.random.Generator) -> TrialObservation:
    """One clean + one jammed interval under one policy.

    Pure function of ``(scenario, policy, rng)`` — the tournament's
    byte-identity across workers and resumes rests on randomness
    entering only through ``rng``.
    """
    clean_windows, clean_prr, _a, _b, _t = _observe_interval(
        scenario, None, rng)
    jam_windows, jam_prr, airtime, bursts, triggers = _observe_interval(
        scenario, policy, rng)
    features = np.stack([w.vector() for w in clean_windows + jam_windows])
    labels = np.concatenate([
        np.zeros(len(clean_windows), dtype=np.int64),
        np.ones(len(jam_windows), dtype=np.int64),
    ])
    return TrialObservation(
        features=features, labels=labels,
        clean_prr=clean_prr, jammed_prr=jam_prr,
        jam_airtime_s=airtime, jam_bursts=bursts,
        triggers_seen=triggers, duration_s=scenario.duration_s,
    )


def _tournament_trial(spec: tuple[DefenseScenario, JamPolicy],
                      rng: np.random.Generator) -> TrialObservation:
    """Module-level picklable trial task for the sweep pool."""
    scenario, policy = spec
    return run_trial(scenario, policy, rng)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class TournamentCell:
    """One (policy, detector) grid cell's detection outcome."""

    policy: str
    detector: str
    auc: float
    train_windows: int
    test_windows: int

    def to_dict(self) -> dict:
        return {
            "policy": self.policy, "detector": self.detector,
            "auc": self.auc, "train_windows": self.train_windows,
            "test_windows": self.test_windows,
        }


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's jamming-efficiency bookkeeping across its trials."""

    policy: str
    jam_probability: float
    clean_prr: float
    jammed_prr: float
    #: Fractional PRR degradation the jammer bought.
    disruption: float
    #: Transmitted jam airtime over observed time.
    jam_duty: float
    #: Disruption per unit duty — An & Weber's efficiency axis.
    efficiency: float
    jam_bursts: int
    triggers_seen: int

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "jam_probability": self.jam_probability,
            "clean_prr": self.clean_prr, "jammed_prr": self.jammed_prr,
            "disruption": self.disruption, "jam_duty": self.jam_duty,
            "efficiency": self.efficiency, "jam_bursts": self.jam_bursts,
            "triggers_seen": self.triggers_seen,
        }


@dataclass
class TournamentResult:
    """Everything one tournament measured."""

    scenario: DefenseScenario
    seed: int
    n_trials: int
    cells: list[TournamentCell] = field(default_factory=list)
    outcomes: list[PolicyOutcome] = field(default_factory=list)
    curves: dict[tuple[str, str], RocCurve] = field(default_factory=dict)

    def auc_for(self, policy: str, detector: str) -> float:
        """The AUC of one grid cell."""
        for cell in self.cells:
            if cell.policy == policy and cell.detector == detector:
                return cell.auc
        raise ConfigurationError(
            f"no tournament cell ({policy!r}, {detector!r})")

    def outcome_for(self, policy: str) -> PolicyOutcome:
        """The efficiency bookkeeping of one policy."""
        for outcome in self.outcomes:
            if outcome.policy == policy:
                return outcome
        raise ConfigurationError(f"no tournament policy {policy!r}")

    def curve_for(self, detector: str) -> list[dict]:
        """The efficiency-vs-AUC curve of one detector, policy by policy."""
        rows = []
        for outcome in self.outcomes:
            rows.append({
                "policy": outcome.policy,
                "jam_probability": outcome.jam_probability,
                "disruption": outcome.disruption,
                "jam_duty": outcome.jam_duty,
                "efficiency": outcome.efficiency,
                "auc": self.auc_for(outcome.policy, detector),
            })
        return rows

    @property
    def detectors(self) -> list[str]:
        """Detector names, in evaluation order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.detector not in seen:
                seen.append(cell.detector)
        return seen

    def to_dict(self) -> dict:
        """JSON-compatible form (perf records, report embedding)."""
        return {
            "scenario": {
                "kind": self.scenario.kind,
                "sir_db": self.scenario.sir_db,
                "uptime_s": self.scenario.uptime_s,
                "duration_s": self.scenario.duration_s,
                "window_s": self.scenario.window_s,
                "offered_mbps": self.scenario.offered_mbps,
            },
            "seed": self.seed,
            "n_trials": self.n_trials,
            "cells": [cell.to_dict() for cell in self.cells],
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def table(self) -> str:
        """Console-friendly text table: one row per policy."""
        detectors = self.detectors
        header = (f"{'policy':<12}{'duty':>8}{'disrupt':>9}{'effic':>8}"
                  + "".join(f"{'auc:' + name:>14}" for name in detectors))
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            row = (f"{outcome.policy:<12}{outcome.jam_duty:>8.4f}"
                   f"{outcome.disruption:>9.3f}{outcome.efficiency:>8.1f}")
            for name in detectors:
                row += f"{self.auc_for(outcome.policy, name):>14.3f}"
            lines.append(row)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The tournament


def _policy_outcome(policy: JamPolicy,
                    observations: list[TrialObservation]) -> PolicyOutcome:
    """Aggregate one policy's efficiency numbers over its trials."""
    clean_prr = float(np.mean([o.clean_prr for o in observations]))
    jammed_prr = float(np.mean([o.jammed_prr for o in observations]))
    total_airtime = float(sum(o.jam_airtime_s for o in observations))
    total_time = float(sum(o.duration_s for o in observations))
    disruption = 0.0
    if clean_prr > 0.0:
        disruption = max(0.0, (clean_prr - jammed_prr) / clean_prr)
    duty = total_airtime / total_time if total_time > 0 else 0.0
    efficiency = disruption / duty if duty > 0 else 0.0
    return PolicyOutcome(
        policy=policy.name, jam_probability=policy.jam_probability,
        clean_prr=clean_prr, jammed_prr=jammed_prr,
        disruption=disruption, jam_duty=duty, efficiency=efficiency,
        jam_bursts=sum(o.jam_bursts for o in observations),
        triggers_seen=sum(o.triggers_seen for o in observations),
    )


def _split_train_test(features: np.ndarray, labels: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]:
    """Deterministic interleaved split: even windows train, odd test."""
    idx = np.arange(features.shape[0])
    train = idx % 2 == 0
    return (features[train], labels[train],
            features[~train], labels[~train])


def run_tournament(policies: list[JamPolicy] | None = None,
                   detectors: list[Detector] | None = None,
                   scenario: DefenseScenario | None = None,
                   n_trials: int = 4, seed: int = 1, workers: int = 1,
                   telemetry: "Telemetry | None" = None,
                   resilience: "ResilienceConfig | None" = None,
                   fault_injector: "WorkerFaultInjector | None" = None
                   ) -> TournamentResult:
    """Sweep a (policy x detector) grid and score every pairing.

    The policy axis fans out through the fault-tolerant job layer —
    trials are seeded by grid position, detector fits by
    ``(seed, policy, detector)`` — so the full result is
    byte-identical for any ``workers`` count and across
    checkpoint resumes.
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    scenario = scenario if scenario is not None else DefenseScenario()
    policies = policies if policies is not None else [ALWAYS_JAM]
    detectors = detectors if detectors is not None else default_detectors()
    if not policies:
        raise ConfigurationError("at least one policy is required")
    if not detectors:
        raise ConfigurationError("at least one detector is required")
    points = [(scenario, policy) for policy in policies]
    groups = resilient_sweep(
        _tournament_trial, points, trials=n_trials, workers=workers,
        seed_root=seed, telemetry=telemetry, config=resilience,
        fault_injector=fault_injector)

    result = TournamentResult(scenario=scenario, seed=seed,
                              n_trials=n_trials)
    total_windows = 0
    for policy_index, (policy, observations) in enumerate(
            zip(policies, groups)):
        features = np.concatenate([o.features for o in observations])
        labels = np.concatenate([o.labels for o in observations])
        total_windows += labels.size
        train_x, train_y, test_x, test_y = _split_train_test(features,
                                                             labels)
        result.outcomes.append(_policy_outcome(policy, observations))
        for detector_index, detector in enumerate(detectors):
            fit_rng = np.random.default_rng(
                [seed, _FIT_DOMAIN, policy_index, detector_index])
            detector.fit(train_x, train_y, fit_rng)
            curve = roc_curve(detector.score(test_x), test_y)
            result.curves[(policy.name, detector.name)] = curve
            result.cells.append(TournamentCell(
                policy=policy.name, detector=detector.name,
                auc=curve.auc, train_windows=int(train_y.size),
                test_windows=int(test_y.size)))
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.counter(RUNS_COUNTER).inc()
        metrics.counter(TRIALS_COUNTER).inc(len(policies) * n_trials)
        metrics.counter(WINDOWS_COUNTER).inc(total_windows)
        metrics.counter(CELLS_COUNTER).inc(len(result.cells))
    return result


#: Sanity re-export so ``feature_matrix``-shaped consumers can assert
#: the tournament and the extractor agree on the layout.
N_FEATURES = len(FEATURE_NAMES)
