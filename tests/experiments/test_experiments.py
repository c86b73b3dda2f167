"""Tests for the experiment harnesses (scaled-down runs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.presets import reactive_jammer
from repro.experiments.detection import (
    _CurveTrialSpec,
    _energy_trial,
    _energy_trial_looped,
    _xcorr_trial,
    _xcorr_trial_looped,
    energy_detector_curve,
    long_preamble_curve,
    measured_false_alarm_rate,
    short_preamble_curve,
    threshold_for_false_alarm_rate,
)
from repro.experiments.table1 import format_table, measure_insertion_losses
from repro.experiments.timelines import jamming_timelines, measure_response_time
from repro.experiments.wifi_jamming import WifiJammingTestbed
from repro.experiments.wimax_jamming import run_experiment
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients


class TestFalseAlarmCalibration:
    def test_threshold_monotone_in_fa_rate(self, rng):
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        ci, cq = quantize_coefficients(template)
        strict = threshold_for_false_alarm_rate(ci, cq, 0.083)
        loose = threshold_for_false_alarm_rate(ci, cq, 0.52)
        assert strict > loose

    def test_analytic_model_matches_measurement(self, rng):
        # Validate the exponential-tail model at a measurable FA rate.
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        ci, cq = quantize_coefficients(template)
        target = 2000.0  # triggers/s, measurable in a short run
        threshold = threshold_for_false_alarm_rate(ci, cq, target)
        corr = CrossCorrelator(ci, cq, threshold=threshold)
        measured = measured_false_alarm_rate(corr, duration_s=0.15, rng=rng)
        assert measured == pytest.approx(target, rel=0.6)

    def test_rejects_bad_rates(self, rng):
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        ci, cq = quantize_coefficients(template)
        with pytest.raises(Exception):
            threshold_for_false_alarm_rate(ci, cq, 0.0)


class TestBatchedTrialIdentity:
    """The batched trial engine reproduces the streaming loop exactly."""

    @pytest.mark.parametrize("frame_kind", ["full", "single_long"])
    def test_xcorr_trial_matches_looped(self, frame_kind):
        from repro.core.coeffs import wifi_long_preamble_template

        ci, cq = quantize_coefficients(wifi_long_preamble_template())
        threshold = threshold_for_false_alarm_rate(ci, cq, 0.083)
        spec = _CurveTrialSpec(frame_kind=frame_kind, snr_db=0.0,
                               n_frames=30, frame_seed=77,
                               coeffs_i=ci, coeffs_q=cq,
                               threshold=threshold)
        for seed in (1, 2, 3):
            batched = _xcorr_trial(spec, np.random.default_rng(seed))
            looped = _xcorr_trial_looped(spec,
                                         np.random.default_rng(seed))
            assert batched == looped

    def test_energy_trial_matches_looped(self):
        spec = _CurveTrialSpec(frame_kind="full", snr_db=3.0,
                               n_frames=30, frame_seed=77,
                               energy_threshold_db=10.0)
        for seed in (1, 2, 3):
            batched = _energy_trial(spec, np.random.default_rng(seed))
            looped = _energy_trial_looped(spec,
                                          np.random.default_rng(seed))
            assert batched == looped

    def test_false_alarm_rate_matches_streaming_facade(self, rng):
        """The chained batch calibration equals process()+rising_edges."""
        from repro.hw.trigger import rising_edges

        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        ci, cq = quantize_coefficients(template)
        threshold = threshold_for_false_alarm_rate(ci, cq, 3000.0)
        duration_s = 0.01
        seed = 424242

        batched = measured_false_alarm_rate(
            CrossCorrelator(ci, cq, threshold=threshold), duration_s,
            np.random.default_rng(seed), chunk_samples=1 << 16)

        from repro import units
        from repro.channel.awgn import awgn

        corr = CrossCorrelator(ci, cq, threshold=threshold)
        stream_rng = np.random.default_rng(seed)
        remaining = int(duration_s * units.BASEBAND_RATE)
        triggers = 0
        last = False
        while remaining > 0:
            n = min(1 << 16, remaining)
            (trig,) = corr.process(awgn(n, 1.0, stream_rng))
            triggers += rising_edges(trig, last).size
            last = bool(trig[-1])
            remaining -= n
        assert batched == triggers / duration_s


class TestDetectionCurves:
    def test_long_preamble_monotone_and_knee(self):
        points = long_preamble_curve([-6.0, 0.0, 6.0], n_frames=120,
                                     full_frames=False)
        probs = [p.detection_probability for p in points]
        assert probs[0] < 0.2          # below the noise floor
        assert probs[2] > 0.9          # well above the knee
        assert probs == sorted(probs)  # monotone in SNR

    def test_full_frames_beat_single_preambles(self):
        snrs = [-3.0, 0.0]
        single = long_preamble_curve(snrs, n_frames=150, full_frames=False)
        full = long_preamble_curve(snrs, n_frames=150, full_frames=True)
        # Two long preambles per frame: strictly more chances.
        for s, f in zip(single, full):
            assert f.detection_probability >= s.detection_probability

    def test_lower_fa_rate_lowers_detection(self):
        snrs = [-2.0]
        strict = long_preamble_curve(snrs, n_frames=150, fa_per_second=0.083,
                                     full_frames=False)
        loose = long_preamble_curve(snrs, n_frames=150, fa_per_second=0.52,
                                    full_frames=False)
        assert strict[0].detection_probability <= loose[0].detection_probability

    def test_short_preamble_detects_full_frames(self):
        points = short_preamble_curve([0.0, 6.0], n_frames=100)
        assert points[1].detection_probability > 0.95

    def test_energy_detector_three_regimes(self):
        points = energy_detector_curve([-6.0, 9.5, 15.0], n_frames=100,
                                       threshold_db=10.0)
        by_snr = {p.snr_db: p for p in points}
        # Regime 1: below threshold, nothing.
        assert by_snr[-6.0].detection_probability == 0.0
        # Regime 2: near threshold, marginal/multiple detections.
        assert 0.0 < by_snr[9.5].detection_probability
        # Regime 3: a single clean detection per frame.
        assert by_snr[15.0].detection_probability == 1.0
        assert by_snr[15.0].mean_detections_per_frame == pytest.approx(1.0, abs=0.05)


class TestTable1:
    def test_measured_matches_paper(self):
        measured = measure_insertion_losses()
        assert measured[(1, 2)] == pytest.approx(-51.0, abs=0.01)
        assert measured[(4, 5)] is None

    def test_format_renders_all_ports(self):
        table = format_table(measure_insertion_losses())
        assert "-51.0dB" in table
        assert table.count("\n") == 5


class TestTimelines:
    def test_analytic_budget(self):
        tl = jamming_timelines()
        assert tl.t_resp_xcorr == pytest.approx(2.64e-6)

    def test_measured_end_to_end(self):
        measured = measure_response_time()
        assert measured.detection_latency == pytest.approx(2.56e-6)
        assert measured.rf_response_latency == pytest.approx(80e-9)
        assert measured.total == pytest.approx(2.64e-6)


class TestWifiJammingTestbed:
    def test_power_arithmetic(self):
        bed = WifiJammingTestbed()
        assert bed.client_power_at_ap_dbm() == pytest.approx(14.0 - 51.0)
        # SIR = S - (jam_tx + loss) => jam_tx = S - SIR - loss.
        assert bed.jammer_tx_for_sir(20.0) == pytest.approx(-37.0 - 20.0 + 38.4)

    def test_jammer_off_baseline(self):
        bed = WifiJammingTestbed(duration_s=0.3)
        point = bed.run_point(None, None)
        assert point.personality == "off"
        assert 27.0 < point.report.bandwidth_mbps < 33.0
        assert point.packet_reception_ratio > 0.95

    def test_reactive_jammer_cliff_ordering(self):
        bed = WifiJammingTestbed(duration_s=0.25)
        strong = bed.run_point(reactive_jammer(1e-4), sir_db=5.0)
        weak = bed.run_point(reactive_jammer(1e-4), sir_db=40.0)
        assert strong.bandwidth_kbps < 1000.0
        assert weak.bandwidth_kbps > 25_000.0

    def test_mismatched_point_args_rejected(self):
        bed = WifiJammingTestbed()
        with pytest.raises(Exception):
            bed.run_point(reactive_jammer(1e-4), None)


class TestWimaxExperiment:
    def test_misdetection_and_combined(self):
        results = run_experiment(n_frames=15)
        xcorr = results["xcorr_only"]
        combined = results["combined"]
        # The paper's finding: xcorr alone misses most frames; the
        # combined scheme detects all of them, one burst per frame.
        assert xcorr.misdetection_rate > 0.4
        assert combined.detection_rate == 1.0
        assert combined.jam_bursts == 15

    def test_traces_exposed(self):
        results = run_experiment(n_frames=2)
        r = results["combined"]
        assert r.rx_trace.size == r.tx_trace.size
        assert np.any(np.abs(r.tx_trace) > 0)


class TestRocCurve:
    def test_detection_grows_with_false_alarm_budget(self):
        from repro.core.coeffs import wifi_long_preamble_template
        from repro.experiments.detection import roc_curve

        points = roc_curve(wifi_long_preamble_template(), snr_db=-1.0,
                           fa_rates_per_s=[0.01, 0.1, 1.0, 100.0],
                           n_frames=150)
        pds = [pd for _fa, pd in points]
        # Monotone non-decreasing in the admitted false-alarm rate.
        assert all(a <= b + 0.05 for a, b in zip(pds, pds[1:]))
        assert pds[-1] > pds[0]
