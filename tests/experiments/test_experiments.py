"""Tests for the experiment harnesses (scaled-down runs)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coeffs import (
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.core.presets import reactive_jammer
from repro.errors import ConfigurationError
from repro.experiments import detection
from repro.experiments.detection import (
    DetectionPoint,
    _CurveTrialSpec,
    _energy_trial,
    _xcorr_trial,
    energy_detector_curve,
    long_preamble_curve,
    measured_false_alarm_rate,
    roc_curve,
    short_preamble_curve,
    threshold_for_false_alarm_rate,
)
from repro.experiments.table1 import format_table, measure_insertion_losses
from repro.experiments.timelines import jamming_timelines, measure_response_time
from repro.experiments.wifi_jamming import WifiJammingTestbed
from repro.experiments.wimax_jamming import run_experiment
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from tests.experiments import oracles
from tests.experiments.oracles import (
    energy_trial_looped,
    rising_edges,
    xcorr_trial_looped,
)


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

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_duration(self, rng, duration_s):
        ci, cq = quantize_coefficients(wifi_long_preamble_template())
        corr = CrossCorrelator(ci, cq, threshold=1000)
        with pytest.raises(ConfigurationError, match="duration"):
            measured_false_alarm_rate(corr, duration_s=duration_s, rng=rng)

    @pytest.mark.parametrize("chunk_samples", [0, -8])
    def test_rejects_empty_chunks(self, rng, chunk_samples):
        ci, cq = quantize_coefficients(wifi_long_preamble_template())
        corr = CrossCorrelator(ci, cq, threshold=1000)
        with pytest.raises(ConfigurationError, match="chunk_samples"):
            measured_false_alarm_rate(corr, duration_s=0.001, rng=rng,
                                      chunk_samples=chunk_samples)


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
            batched_rng = np.random.default_rng(seed)
            looped_rng = np.random.default_rng(seed)
            batched = _xcorr_trial(spec, batched_rng)
            looped = xcorr_trial_looped(spec, looped_rng)
            assert batched == looped
            assert batched_rng.bit_generator.state \
                == looped_rng.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(frame_kind=st.sampled_from(["full", "single_long", "single_short"]),
           long_template=st.booleans(),
           snr_db=st.floats(-10.0, 15.0),
           n_frames=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1),
           fa_per_second=st.sampled_from([0.083, 3e6, 1.2e7]))
    def test_xcorr_tail_matches_every_column(self, frame_kind, long_template,
                                             snr_db, n_frames, seed,
                                             fa_per_second):
        """Trimmed correlator rows count what full streaming rows count.

        The oracle correlates every column of every frame through
        ``CrossCorrelator.detect``, so it checks the tail independently.
        High false-alarm rates make noise triggers common, so an edge
        at the window's first column depends on the trigger just
        before it.
        """
        template = wifi_long_preamble_template() if long_template \
            else wifi_short_preamble_template()
        ci, cq = quantize_coefficients(template)
        threshold = threshold_for_false_alarm_rate(ci, cq, fa_per_second)
        spec = _CurveTrialSpec(frame_kind=frame_kind, snr_db=snr_db,
                               n_frames=n_frames, frame_seed=seed % 1000,
                               coeffs_i=ci, coeffs_q=cq,
                               threshold=threshold)
        batched_rng = np.random.default_rng(seed)
        looped_rng = np.random.default_rng(seed)
        assert _xcorr_trial(spec, batched_rng) \
            == xcorr_trial_looped(spec, looped_rng)
        assert batched_rng.bit_generator.state \
            == looped_rng.bit_generator.state

    def test_energy_trial_matches_looped(self):
        spec = _CurveTrialSpec(frame_kind="full", snr_db=3.0,
                               n_frames=30, frame_seed=77,
                               energy_threshold_db=10.0)
        for seed in (1, 2, 3):
            batched_rng = np.random.default_rng(seed)
            looped_rng = np.random.default_rng(seed)
            batched = _energy_trial(spec, batched_rng)
            looped = energy_trial_looped(spec, looped_rng)
            assert batched == looped
            assert batched_rng.bit_generator.state \
                == looped_rng.bit_generator.state

    @pytest.mark.parametrize("energy", [False, True])
    def test_ragged_arrivals_match_looped(self, monkeypatch, energy):
        """Arrivals of unequal length pad their rows; counts still match.

        Every frame kind's four arrivals have one length, so this
        trims them to four lengths to reach the padded-row path.
        """
        arrivals = detection._frame_arrivals("full", 77)
        ragged = tuple(arrival[:arrival.size - cut]
                       for arrival, cut in zip(arrivals, (0, 1, 3, 2)))
        for module in (detection, oracles):
            monkeypatch.setattr(module, "_frame_arrivals",
                                lambda kind, seed: ragged)
        if energy:
            spec = _CurveTrialSpec(frame_kind="full", snr_db=12.0,
                                   n_frames=20, frame_seed=77,
                                   energy_threshold_db=10.0)
            trial, looped = _energy_trial, energy_trial_looped
        else:
            ci, cq = quantize_coefficients(wifi_long_preamble_template())
            threshold = threshold_for_false_alarm_rate(ci, cq, 1.2e7)
            spec = _CurveTrialSpec(frame_kind="full", snr_db=0.0,
                                   n_frames=20, frame_seed=77,
                                   coeffs_i=ci, coeffs_q=cq,
                                   threshold=threshold)
            trial, looped = _xcorr_trial, xcorr_trial_looped
        for seed in (1, 2):
            # Stale scratch from an earlier trial must not reach the
            # arithmetic past a row's end.
            detection._DRAWS.view(1 << 17)[:] = 1e300
            batched_rng = np.random.default_rng(seed)
            looped_rng = np.random.default_rng(seed)
            with np.errstate(over="raise", invalid="raise"):
                batched = trial(spec, batched_rng)
            assert batched == looped(spec, looped_rng)
            assert batched_rng.bit_generator.state \
                == looped_rng.bit_generator.state

    def test_bank_longer_than_guard_rejected(self):
        """Such a bank's first window would reach into the last frame."""
        taps = detection.GUARD_SAMPLES + 1
        spec = _CurveTrialSpec(frame_kind="single_long", snr_db=0.0,
                               n_frames=2, frame_seed=1,
                               coeffs_i=np.ones(taps, dtype=np.int64),
                               coeffs_q=np.ones(taps, dtype=np.int64),
                               threshold=1)
        with pytest.raises(ConfigurationError, match="guard"):
            _xcorr_trial(spec, np.random.default_rng(0))

    def test_phase_draw_equals_uniform(self):
        """2 pi * random() is uniform(0, 2 pi) from the same draw."""
        scaled, uniform = (np.random.default_rng(5),
                           np.random.default_rng(5))
        np.testing.assert_array_equal(
            2.0 * np.pi * scaled.random(100_000),
            uniform.uniform(0.0, 2.0 * np.pi, 100_000))
        for _ in range(1000):
            assert 2.0 * np.pi * scaled.random() \
                == uniform.uniform(0.0, 2.0 * np.pi)
        assert scaled.bit_generator.state == uniform.bit_generator.state

    def test_false_alarm_rate_matches_streaming_facade(self, rng):
        """The chained batch calibration equals detect()+rising_edges."""
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
            (trig,) = corr.detect(awgn(n, 1.0, stream_rng))
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


#: Small curves recorded before correlator trials were trimmed to their
#: in-frame tail: (snr_db, Pd hex, mean detections hex, frames).
PINNED_CURVES = {
    "fig6_single_long": [
        (-6.0, "0x1.1111111111111p-7", "0x1.1111111111111p-7", 120),
        (-3.0, "0x1.ddddddddddddep-4", "0x1.ddddddddddddep-4", 120),
        (0.0, "0x1.3777777777777p-1", "0x1.3777777777777p-1", 120),
        (3.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0", 120),
        (6.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0", 120),
    ],
    "fig6_full": [
        (-6.0, "0x0.0p+0", "0x0.0p+0", 60),
        (-3.0, "0x1.1111111111111p-3", "0x1.3333333333333p-3", 60),
        (0.0, "0x1.a222222222222p-1", "0x1.4000000000000p+0", 60),
    ],
    "fig7": [
        (-6.0, "0x0.0p+0", "0x0.0p+0", 60),
        (-3.0, "0x1.999999999999ap-2", "0x1.b333333333333p-1", 60),
        (0.0, "0x1.e666666666666p-1", "0x1.3cccccccccccdp+2", 60),
    ],
    "fig8": [
        (6.0, "0x0.0p+0", "0x0.0p+0", 60),
        (8.0, "0x1.6666666666666p-2", "0x1.6666666666666p-1", 60),
        (12.0, "0x1.0000000000000p+0", "0x1.199999999999ap+0", 60),
        (20.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0", 60),
    ],
}


def _hex_points(points: list[DetectionPoint]) -> list[tuple]:
    return [(p.snr_db, p.detection_probability.hex(),
             p.mean_detections_per_frame.hex(), p.n_frames) for p in points]


class TestPinnedCurves:
    """Fig. 6, 7 and 8 curves keep their exact bytes."""

    def test_fig6_single_long(self):
        points = long_preamble_curve([-6.0, -3.0, 0.0, 3.0, 6.0],
                                     n_frames=120, full_frames=False,
                                     seed=11)
        assert _hex_points(points) == PINNED_CURVES["fig6_single_long"]

    def test_fig6_full_frames(self):
        points = long_preamble_curve([-6.0, -3.0, 0.0], n_frames=60,
                                     seed=12)
        assert _hex_points(points) == PINNED_CURVES["fig6_full"]

    def test_fig7(self):
        points = short_preamble_curve([-6.0, -3.0, 0.0], n_frames=60,
                                      seed=13)
        assert _hex_points(points) == PINNED_CURVES["fig7"]

    def test_fig8(self):
        points = energy_detector_curve([6.0, 8.0, 12.0, 20.0], n_frames=60,
                                       seed=14)
        assert _hex_points(points) == PINNED_CURVES["fig8"]

    @pytest.mark.parametrize("curve, snrs_db", [
        ("correlator", [0.0, 0.0, 3.0]),
        ("energy", [9.0, 9.0, 15.0]),
    ])
    def test_repeated_snr_stays_two_points(self, curve, snrs_db):
        """Points are tallied by position, not by SNR value."""
        if curve == "correlator":
            points = long_preamble_curve(snrs_db, n_frames=100,
                                         full_frames=False, seed=5)
        else:
            points = energy_detector_curve(snrs_db, n_frames=100, seed=5)
        assert [p.snr_db for p in points] == snrs_db
        assert [p.n_frames for p in points] == [100, 100, 100]
        # Each point replays its own trial seeds, so the two points at
        # one SNR are independent draws, not one tally reported twice.
        assert points[0] != points[1]


class TestFrameBudget:
    """A curve point needs at least one frame."""

    @pytest.mark.parametrize("n_frames", [0, -3, -5])
    @pytest.mark.parametrize("curve", [
        lambda n: long_preamble_curve([0.0], n_frames=n, full_frames=False),
        lambda n: long_preamble_curve([0.0], n_frames=n),
        lambda n: short_preamble_curve([0.0], n_frames=n),
        lambda n: energy_detector_curve([9.0], n_frames=n),
        lambda n: roc_curve(wifi_long_preamble_template(), snr_db=0.0,
                            fa_rates_per_s=[0.083], n_frames=n),
        lambda n: roc_curve(wifi_long_preamble_template(), snr_db=0.0,
                            fa_rates_per_s=[], n_frames=n),
    ], ids=["fig6_single", "fig6_full", "fig7", "fig8", "roc", "roc_empty"])
    def test_rejects_fewer_than_one_frame(self, curve, n_frames):
        with pytest.raises(ConfigurationError, match="at least 1 frame"):
            curve(n_frames)

    def test_one_frame_is_a_point(self):
        (point,) = long_preamble_curve([6.0], n_frames=1, full_frames=False)
        assert point.n_frames == 1


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
