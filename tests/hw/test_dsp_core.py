"""Tests for the composite custom DSP core and its register plane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.dsp_core import CustomDspCore
from repro.hw.registers import pack_signed_fields
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform


@pytest.fixture
def template(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


def program_template(core: CustomDspCore, template: np.ndarray) -> None:
    ci, cq = quantize_coefficients(template)
    for off, word in enumerate(pack_signed_fields([int(c) for c in ci], 3)):
        core.bus.write(regmap.REG_COEFF_I_BASE + off, word)
    for off, word in enumerate(pack_signed_fields([int(c) for c in cq], 3)):
        core.bus.write(regmap.REG_COEFF_Q_BASE + off, word)


def make_core(template: np.ndarray, threshold: int = 30_000,
              uptime: int = 100, waveform: JamWaveform = JamWaveform.WGN,
              stages: int = regmap.TRIGGER_MODE_BIT * 0) -> CustomDspCore:
    core = CustomDspCore()
    program_template(core, template)
    core.bus.write(regmap.REG_XCORR_THRESHOLD, threshold)
    # Single XCORR stage.
    core.bus.write(regmap.REG_TRIGGER_CONFIG,
                   (1 << regmap.STAGE_ENABLE_SHIFT) | int(TriggerSource.XCORR))
    core.bus.write(regmap.REG_JAM_UPTIME, uptime)
    core.bus.write(regmap.REG_JAM_WAVEFORM, int(waveform))
    core.bus.write(regmap.REG_CONTROL_FLAGS, regmap.FLAG_JAMMER_ENABLE)
    return core


class TestRegisterPlane:
    def test_coefficients_land_in_correlator(self, template):
        core = CustomDspCore()
        program_template(core, template)
        ci, cq = quantize_coefficients(template)
        got_i, got_q = core.correlator.coefficients
        assert np.array_equal(got_i, ci)
        assert np.array_equal(got_q, cq)

    def test_threshold_register(self, template):
        core = CustomDspCore()
        core.bus.write(regmap.REG_XCORR_THRESHOLD, 12345)
        assert core.correlator.threshold == 12345

    def test_energy_thresholds(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_ENERGY_THRESHOLD_HIGH,
                       regmap.encode_energy_threshold_db(12.5))
        core.bus.write(regmap.REG_ENERGY_THRESHOLD_LOW,
                       regmap.encode_energy_threshold_db(7.0))
        assert core.energy.threshold_high_db == pytest.approx(12.5)
        assert core.energy.threshold_low_db == pytest.approx(7.0)

    def test_trigger_config_stages(self):
        core = CustomDspCore()
        word = ((1 << regmap.STAGE_ENABLE_SHIFT)
                | (1 << (regmap.STAGE_ENABLE_SHIFT + 1))
                | int(TriggerSource.ENERGY_HIGH)
                | (int(TriggerSource.XCORR) << regmap.STAGE_SOURCE_BITS))
        core.bus.write(regmap.REG_TRIGGER_WINDOW, 50)
        core.bus.write(regmap.REG_TRIGGER_CONFIG, word)
        assert [s.source for s in core.fsm.stages] == [
            TriggerSource.ENERGY_HIGH, TriggerSource.XCORR]

    def test_trigger_any_mode_bit(self):
        core = CustomDspCore()
        word = ((1 << regmap.STAGE_ENABLE_SHIFT)
                | (1 << (regmap.STAGE_ENABLE_SHIFT + 1))
                | regmap.TRIGGER_MODE_BIT)
        core.bus.write(regmap.REG_TRIGGER_CONFIG, word)
        assert core.fsm.mode is TriggerMode.ANY

    def test_jammer_settings(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_JAM_DELAY, 77)
        core.bus.write(regmap.REG_JAM_UPTIME, 2500)
        core.bus.write(regmap.REG_REPLAY_LENGTH, 256)
        assert core.tx.delay_samples == 77
        assert core.tx.uptime_samples == 2500
        assert core.tx.replay_length == 256

    def test_control_flags(self):
        core = CustomDspCore()
        core.bus.write(regmap.REG_CONTROL_FLAGS,
                       regmap.FLAG_JAMMER_ENABLE | (0xAB << regmap.ANTENNA_SHIFT))
        assert core.jammer_enabled
        assert core.antenna_bits == 0xAB
        core.bus.write(regmap.REG_CONTROL_FLAGS, 0)
        assert not core.jammer_enabled

    def test_registers_used_is_24(self):
        assert regmap.REGISTERS_USED == 24
        assert regmap.REG_REPLAY_LENGTH == 23


class TestDataPath:
    def test_detection_and_jam_pipeline(self, rng, template):
        core = make_core(template)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        out = core.process(rx)
        xcorr = [d for d in out.detections if d.source is TriggerSource.XCORR]
        assert len(xcorr) == 1
        assert xcorr[0].time == 563
        assert len(out.jams) == 1
        assert out.jams[0].start == 565  # detection + 2 samples (80 ns)
        # TX waveform active only during the burst.
        assert np.all(out.tx[:565] == 0)
        assert np.any(np.abs(out.tx[565:665]) > 0)
        assert np.all(out.tx[665:] == 0)

    def test_chunked_equals_single_shot(self, rng, template):
        rx = awgn(3000, 1e-6, rng)
        rx[700:764] += template
        core_a = make_core(template)
        whole = core_a.process(rx)
        core_b = make_core(template)
        parts = [core_b.process(rx[i:i + 251]) for i in range(0, 3000, 251)]
        tx = np.concatenate([p.tx for p in parts])
        assert np.allclose(tx, whole.tx)
        jams = [j for p in parts for j in p.jams]
        assert [(j.start, j.end) for j in jams] == \
            [(j.start, j.end) for j in whole.jams]

    def test_jammer_disabled_produces_no_tx(self, rng, template):
        core = make_core(template)
        core.bus.write(regmap.REG_CONTROL_FLAGS, 0)  # disable
        rx = awgn(1000, 1e-6, rng)
        rx[300:364] += template
        out = core.process(rx)
        assert len(out.detections) >= 1  # detection still runs
        assert not out.jams
        assert np.all(out.tx == 0)

    def test_continuous_mode_transmits_always(self, rng, template):
        core = make_core(template)
        core.bus.write(regmap.REG_CONTROL_FLAGS,
                       regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
        rx = awgn(1000, 1e-6, rng)
        out = core.process(rx)
        assert np.all(np.abs(out.tx) > 0)

    def test_detection_counters(self, rng, template):
        core = make_core(template)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template
        rx[1500:1564] += template
        core.process(rx)
        assert core.detection_counts[TriggerSource.XCORR] == 2
        assert core.jam_count == 2

    def test_clock_advances(self, rng, template):
        core = make_core(template)
        core.process(awgn(123, 1.0, rng))
        core.process(awgn(77, 1.0, rng))
        assert core.clock == 200

    def test_reset_restores_cold_state(self, rng, template):
        core = make_core(template)
        core.process(awgn(500, 1e-6, rng))
        core.reset()
        assert core.clock == 0
        assert core.jam_count == 0
        assert core.detection_counts[TriggerSource.XCORR] == 0

    def test_empty_chunk(self, template):
        core = make_core(template)
        out = core.process(np.zeros(0, dtype=complex))
        assert out.tx.size == 0

    def test_replay_waveform_echoes_preamble(self, rng, template):
        core = make_core(template, waveform=JamWaveform.REPLAY, uptime=64)
        core.bus.write(regmap.REG_REPLAY_LENGTH, 64)
        rx = awgn(1000, 1e-9, rng)
        rx[300:364] += template * 0.5
        out = core.process(rx)
        assert len(out.jams) == 1
        burst = out.tx[out.jams[0].start:out.jams[0].end]
        # The replayed burst must correlate strongly with the preamble
        # it captured (quantization makes it inexact).
        captured = burst[:64]
        rho = np.abs(np.vdot(captured, template)) / (
            np.linalg.norm(captured) * np.linalg.norm(template))
        assert rho > 0.9
