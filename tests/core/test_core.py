"""Tests for the framework facade: templates, configs, presets, timeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.core.coeffs import (
    infer_template_from_capture,
    wifi_long_preamble_template,
    wifi_short_preamble_template,
    wimax_preamble_template,
)
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.presets import (
    REACTIVE_UPTIME_LONG_S,
    REACTIVE_UPTIME_SHORT_S,
    continuous_jammer,
    paper_personalities,
    reactive_jammer,
)
from repro.core.timeline import timeline_for
from repro.errors import ConfigurationError
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform, TransmitController
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210


class TestTemplates:
    def test_all_templates_are_64_samples(self):
        assert wifi_long_preamble_template().size == 64
        assert wifi_short_preamble_template().size == 64
        assert wimax_preamble_template().size == 64

    def test_long_template_is_truncated_resampled_code(self):
        from repro.dsp.resample import resample
        from repro.phy.wifi.preamble import long_training_symbol

        full = resample(long_training_symbol(), 20e6, 25e6)
        assert np.allclose(wifi_long_preamble_template(), full[:64])

    def test_native_rate_ablation_variant(self):
        from repro.phy.wifi.preamble import long_training_symbol

        native = wifi_long_preamble_template(resampled=False)
        assert np.allclose(native, long_training_symbol())

    def test_short_native_tiles_code(self):
        native = wifi_short_preamble_template(resampled=False)
        assert np.allclose(native[:16], native[16:32])

    def test_wimax_template_skips_cyclic_prefix(self):
        from repro.dsp.resample import resample
        from repro.phy.wimax.preamble import preamble_symbol

        at25 = resample(preamble_symbol(), 11.4e6, 25e6)
        cp25 = int(round(128 * 25 / 11.4))
        assert np.allclose(wimax_preamble_template(), at25[cp25:cp25 + 64])

    def test_infer_template_finds_repeating_preamble(self, rng):
        code = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        capture = 0.01 * (rng.standard_normal(600) + 1j * rng.standard_normal(600))
        capture[100:164] += code
        capture[164:228] += code  # repeats, like a real preamble
        inferred = infer_template_from_capture(capture)
        rho = np.abs(np.vdot(inferred, code)) / (
            np.linalg.norm(inferred) * np.linalg.norm(code))
        assert rho > 0.9

    def test_infer_template_needs_enough_samples(self):
        with pytest.raises(ConfigurationError):
            infer_template_from_capture(np.zeros(100, dtype=complex))


class TestDetectionConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.template is None
        assert config.energy_high_db == 10.0

    def test_template_length_checked(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(template=np.ones(32, dtype=complex))

    def test_threshold_range_checked(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(xcorr_threshold=-1)

    def test_energy_range_checked(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(energy_high_db=2.0)
        with pytest.raises(ConfigurationError):
            DetectionConfig(energy_low_db=31.0)

    def test_threshold_fraction(self):
        full = DetectionConfig.xcorr_threshold_fraction(1.0)
        half = DetectionConfig.xcorr_threshold_fraction(0.5)
        assert half == full // 2
        with pytest.raises(ConfigurationError):
            DetectionConfig.xcorr_threshold_fraction(0.0)


class TestEventBuilder:
    def test_fluent_single_stage(self):
        builder = JammingEventBuilder().on_correlation()
        builder.validate()
        assert builder.stages == [TriggerSource.XCORR]

    def test_multi_stage_with_window(self):
        builder = (JammingEventBuilder()
                   .on_energy_rise().on_correlation().within(10e-6))
        builder.validate()
        assert builder.window_samples == 250

    def test_multi_stage_without_window_invalid(self):
        builder = JammingEventBuilder().on_energy_rise().on_correlation()
        with pytest.raises(ConfigurationError):
            builder.validate()

    def test_any_mode_needs_no_window(self):
        builder = (JammingEventBuilder()
                   .on_correlation().on_energy_rise().any_of())
        builder.validate()
        assert builder.mode is TriggerMode.ANY

    def test_stage_limit(self):
        builder = (JammingEventBuilder()
                   .on_correlation().on_energy_rise().on_energy_fall())
        with pytest.raises(ConfigurationError):
            builder.on_correlation()

    def test_empty_invalid(self):
        with pytest.raises(ConfigurationError):
            JammingEventBuilder().validate()

    def test_program_writes_hardware(self):
        device = UsrpN210()
        driver = UhdDriver(device)
        (JammingEventBuilder()
         .on_energy_rise().on_correlation().within_samples(500)
         .program(driver))
        assert device.core.fsm.stages == [
            TriggerSource.ENERGY_HIGH, TriggerSource.XCORR]
        assert device.core.fsm.window_samples == 500


class TestPersonalities:
    def test_paper_presets(self):
        trio = paper_personalities()
        assert [p.name for p in trio] == [
            "continuous", "reactive-0.1ms", "reactive-0.01ms"]

    def test_uptimes_in_samples(self):
        assert reactive_jammer(REACTIVE_UPTIME_LONG_S).uptime_samples == 2500
        assert reactive_jammer(REACTIVE_UPTIME_SHORT_S).uptime_samples == 250

    def test_uptime_seconds_property(self):
        p = reactive_jammer(1e-4)
        assert p.uptime_seconds == pytest.approx(1e-4)

    def test_continuous_flag(self):
        assert continuous_jammer().continuous
        assert not reactive_jammer(1e-4).continuous

    def test_sub_sample_uptime_rejected(self):
        with pytest.raises(ConfigurationError):
            reactive_jammer(1e-9)

    def test_surgical_delay(self):
        p = reactive_jammer(1e-5, delay_seconds=20e-6)
        assert p.delay_samples == 500

    def test_waveform_selection(self):
        p = reactive_jammer(1e-4, waveform=JamWaveform.REPLAY)
        assert p.waveform is JamWaveform.REPLAY


class TestTimeline:
    def test_paper_numbers(self):
        tl = timeline_for()
        assert tl.t_en_det == pytest.approx(1.28e-6)
        assert tl.t_xcorr_det == pytest.approx(2.56e-6)
        assert tl.t_init == pytest.approx(80e-9)
        assert tl.t_resp_energy == pytest.approx(1.36e-6)
        assert tl.t_resp_xcorr == pytest.approx(2.64e-6)

    def test_respects_configuration(self):
        tx = TransmitController(uptime_samples=250, delay_samples=100)
        tl = timeline_for(tx=tx)
        assert tl.t_jam == pytest.approx(1e-5)
        assert tl.t_delay == pytest.approx(4e-6)
        assert tl.t_resp_xcorr == pytest.approx(2.64e-6 + 4e-6)

    def test_energy_window_scales(self):
        tl = timeline_for(energy=EnergyDifferentiator(window=64))
        assert tl.t_en_det == pytest.approx(2.56e-6)

    def test_as_dict_keys(self):
        d = timeline_for().as_dict()
        assert set(d) == {"T_en_det", "T_xcorr_det", "T_init", "T_delay",
                          "T_jam", "T_resp(energy)", "T_resp(xcorr)"}

    def test_jam_duration_range_matches_paper(self):
        # 40 ns .. ~40 s selectable (the 32-bit counter runs on the
        # 100 MHz clock: 2^32 cycles ~ 42.9 s).
        from repro.hw.tx_controller import MAX_UPTIME_SAMPLES

        assert units.samples_to_seconds(1) == pytest.approx(40e-9)
        assert units.samples_to_seconds(MAX_UPTIME_SAMPLES) == pytest.approx(
            42.9, rel=0.01)
