"""The (policy x detector) tournament harness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.defense.features import FEATURE_NAMES
from repro.defense.policies import ALWAYS_JAM, randomized_policy
from repro.defense.tournament import (
    CELLS_COUNTER,
    RUNS_COUNTER,
    TRIALS_COUNTER,
    WINDOWS_COUNTER,
    DefenseScenario,
    TournamentResult,
    run_tournament,
    run_trial,
)
from repro.errors import ConfigurationError
from repro.runtime.jobs import ResilienceConfig
from repro.telemetry.session import Telemetry

#: A deliberately small scenario: 2 windows per observed interval.
FAST = DefenseScenario(duration_s=0.02, window_s=0.01)


class TestDefenseScenario:
    def test_validates_kind(self):
        with pytest.raises(ConfigurationError):
            DefenseScenario(kind="barrage")

    def test_validates_duration(self):
        with pytest.raises(ConfigurationError):
            DefenseScenario(duration_s=0.001, window_s=0.01)

    def test_windows_per_run(self):
        assert DefenseScenario().windows_per_run == 24
        assert FAST.windows_per_run == 2


class TestRunTrial:
    def test_trial_shape_and_labels(self):
        obs = run_trial(FAST, ALWAYS_JAM, np.random.default_rng(1))
        assert obs.features.shape == (4, len(FEATURE_NAMES))
        assert list(obs.labels) == [0, 0, 1, 1]
        assert obs.duration_s == FAST.duration_s

    def test_trial_is_pure_in_the_rng(self):
        runs = [run_trial(FAST, randomized_policy(0.5),
                          np.random.default_rng(3)) for _ in range(2)]
        np.testing.assert_array_equal(runs[0].features, runs[1].features)
        assert runs[0].jam_airtime_s == runs[1].jam_airtime_s
        assert runs[0].jam_bursts == runs[1].jam_bursts

    def test_always_jam_disrupts_the_link(self):
        obs = run_trial(DefenseScenario(), ALWAYS_JAM,
                        np.random.default_rng(1))
        assert obs.clean_prr > 0.9
        assert obs.jammed_prr < obs.clean_prr
        assert obs.jam_airtime_s > 0.0
        assert obs.jam_bursts > 0

    def test_constant_scenario_pins_the_medium(self):
        obs = run_trial(DefenseScenario(kind="constant"), ALWAYS_JAM,
                        np.random.default_rng(1))
        assert obs.jam_airtime_s == pytest.approx(
            DefenseScenario().duration_s)
        jammed = obs.features[obs.labels == 1]
        busy = jammed[:, FEATURE_NAMES.index("busy_fraction")]
        assert np.all(busy > 0.9)

    def test_constant_scenario_rejects_randomized_policies(self):
        with pytest.raises(ConfigurationError):
            run_trial(DefenseScenario(kind="constant"),
                      randomized_policy(0.5), np.random.default_rng(1))


class TestRunTournament:
    def test_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            run_tournament(scenario=FAST, n_trials=0)
        with pytest.raises(ConfigurationError):
            run_tournament(policies=[], scenario=FAST)
        with pytest.raises(ConfigurationError):
            run_tournament(detectors=[], scenario=FAST)

    def test_grid_and_accessors(self):
        policies = [ALWAYS_JAM, randomized_policy(0.5)]
        result = run_tournament(policies=policies, scenario=FAST,
                                n_trials=2, seed=5)
        assert isinstance(result, TournamentResult)
        assert len(result.cells) == 4
        assert result.detectors == ["logistic", "xu-rule"]
        assert 0.0 <= result.auc_for("p0.5", "logistic") <= 1.0
        assert result.outcome_for("always").jam_probability == 1.0
        with pytest.raises(ConfigurationError):
            result.auc_for("never", "logistic")
        with pytest.raises(ConfigurationError):
            result.outcome_for("never")

    def test_curve_pairs_efficiency_with_auc(self):
        result = run_tournament(policies=[ALWAYS_JAM], scenario=FAST,
                                n_trials=2, seed=5)
        [row] = result.curve_for("logistic")
        assert row["policy"] == "always"
        assert set(row) == {"policy", "jam_probability", "disruption",
                            "jam_duty", "efficiency", "auc"}

    def test_table_lists_every_policy_and_detector(self):
        result = run_tournament(
            policies=[ALWAYS_JAM, randomized_policy(0.5)],
            scenario=FAST, n_trials=2, seed=5)
        table = result.table()
        assert "always" in table and "p0.5" in table
        assert "auc:logistic" in table and "auc:xu-rule" in table

    def test_serial_and_parallel_are_byte_identical(self):
        policies = [ALWAYS_JAM, randomized_policy(0.5)]
        serial = run_tournament(policies=policies, scenario=FAST,
                                n_trials=2, seed=9, workers=1)
        parallel = run_tournament(policies=policies, scenario=FAST,
                                  n_trials=2, seed=9, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) \
            == json.dumps(parallel.to_dict(), sort_keys=True)

    def test_resumed_tournament_is_byte_identical(self, tmp_path):
        journal = tmp_path / "defense.jsonl"
        config = ResilienceConfig(checkpoint_path=str(journal))
        policies = [ALWAYS_JAM, randomized_policy(0.5)]
        first = run_tournament(policies=policies, scenario=FAST,
                               n_trials=2, seed=9, resilience=config)
        assert journal.exists()
        resumed = run_tournament(policies=policies, scenario=FAST,
                                 n_trials=2, seed=9, resilience=config)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(resumed.to_dict(), sort_keys=True)

    def test_telemetry_counters(self):
        telemetry = Telemetry(enabled=True)
        run_tournament(policies=[ALWAYS_JAM, randomized_policy(0.5)],
                       scenario=FAST, n_trials=2, seed=5,
                       telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics.counter(RUNS_COUNTER).value == 1
        assert metrics.counter(TRIALS_COUNTER).value == 4
        # 2 policies x 2 trials x 4 windows per trial.
        assert metrics.counter(WINDOWS_COUNTER).value == 16
        assert metrics.counter(CELLS_COUNTER).value == 4

    def test_default_policy_and_detector_field(self):
        result = run_tournament(scenario=FAST, n_trials=2, seed=5)
        assert [o.policy for o in result.outcomes] == ["always"]
        assert len(result.cells) == 2
