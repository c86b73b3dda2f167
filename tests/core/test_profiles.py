"""Tests for jammer configuration profiles (save/restore)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import units
from repro.core.coeffs import (
    dsss_preamble_template,
    wifi_long_preamble_template,
    wifi_short_preamble_template,
)
from repro.core.detection import DetectionConfig, ProtocolBank
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.core.profiles import (
    apply_profile,
    load_profile,
    save_profile,
    snapshot_profile,
)
from repro.errors import ConfigurationError
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import quantize_coefficients
from repro.hw.trigger import TriggerMode, TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210
from repro.phy.wifi.params import WIFI_SAMPLE_RATE


@pytest.fixture
def configured_device() -> UsrpN210:
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_template(wifi_short_preamble_template())
    driver.set_xcorr_threshold(23_456)
    driver.set_energy_thresholds(12.0, 8.0)
    driver.set_trigger_stages([TriggerSource.XCORR,
                               TriggerSource.ENERGY_HIGH],
                              mode=TriggerMode.ANY)
    driver.set_jam_waveform(JamWaveform.REPLAY, wgn_seed=777)
    driver.set_jam_uptime(2500)
    driver.set_jam_delay(100)
    driver.set_replay_length(256)
    driver.set_control(True, False, antenna_bits=0x03)
    device.frontend.tune(2.608e9)
    return device


class TestSnapshotRestore:
    def test_snapshot_contains_everything(self, configured_device):
        profile = snapshot_profile(configured_device, name="test")
        assert profile["name"] == "test"
        assert profile["detection"]["xcorr_threshold"] == 23_456
        assert profile["trigger"]["mode"] == "ANY"
        assert profile["response"]["waveform"] == "REPLAY"
        assert profile["frontend"]["center_freq_hz"] == pytest.approx(2.608e9)

    def test_roundtrip_onto_fresh_device(self, configured_device):
        profile = snapshot_profile(configured_device)
        fresh = UsrpN210()
        apply_profile(fresh, profile)
        assert snapshot_profile(fresh) == snapshot_profile(configured_device)

    def test_restored_device_behaves_identically(self, configured_device,
                                                 rng):
        from repro.channel.awgn import awgn
        from repro.dsp.resample import resample
        from repro.phy.wifi.preamble import short_preamble

        profile = snapshot_profile(configured_device)
        fresh = UsrpN210()
        apply_profile(fresh, profile)
        stf = resample(short_preamble(), 20e6, 25e6)
        rx = awgn(3000, 1e-8, rng)
        rx[500:500 + stf.size] += 0.3 * stf
        out_a = configured_device.run(rx)
        out_b = fresh.run(rx)
        assert np.allclose(out_a.tx, out_b.tx)
        assert [(j.start, j.end) for j in out_a.jams] == \
            [(j.start, j.end) for j in out_b.jams]

    def test_profile_is_json_serializable(self, configured_device):
        profile = snapshot_profile(configured_device)
        json.dumps(profile)  # must not raise


def _banked_jammer() -> ReactiveJammer:
    jammer = ReactiveJammer()
    jammer.configure(
        DetectionConfig(banks=(
            ProtocolBank("wifi", wifi_short_preamble_template(), 12_000),
            ProtocolBank("dsss", dsss_preamble_template(), 13_000),
        )),
        JammingEventBuilder().on_correlation(),
        reactive_jammer(1e-5))
    return jammer


def _recorded_writes(bus) -> list[tuple[int, int]]:
    """Record every ``(address, value)`` written to ``bus`` from now on."""
    writes: list[tuple[int, int]] = []
    write = bus.write

    def recording(address: int, value: int) -> None:
        writes.append((address, value))
        write(address, value)

    bus.write = recording
    return writes


class TestBankRoundTrip:
    def test_restoring_banks_writes_what_programming_them_wrote(self):
        """One path from banks to the bus: restoring a snapshot's banks
        writes the words ``set_correlator_banks`` wrote, in its order."""
        device, fresh = UsrpN210(), UsrpN210()
        programmed = _recorded_writes(device.bus)
        restored = _recorded_writes(fresh.bus)
        UhdDriver(device).set_correlator_banks(
            [wifi_short_preamble_template(), dsss_preamble_template()],
            [12_000, 13_000], labels=["wifi", "dsss"])
        apply_profile(fresh, snapshot_profile(device))
        counts = [index for index, (address, _value) in enumerate(restored)
                  if address == regmap.REG_BANK_COUNT]
        assert programmed[0] == (regmap.REG_BANK_COUNT, 0)
        assert programmed[-1] == (regmap.REG_BANK_COUNT, 2)
        assert restored[counts[0]:counts[-1] + 1] == programmed

    def test_banks_restore_onto_a_fresh_device(self, rng):
        from repro.channel.awgn import awgn
        from repro.dsp.resample import resample
        from repro.phy.wifi.preamble import short_preamble

        device = _banked_jammer().device
        profile = snapshot_profile(device)
        banks = profile["detection"]["banks"]
        assert [b["label"] for b in banks] == ["wifi", "dsss"]
        assert [b["threshold"] for b in banks] == [12_000, 13_000]
        json.dumps(profile)

        fresh = UsrpN210()
        apply_profile(fresh, profile)
        assert fresh.core.bank_count == 2
        assert snapshot_profile(fresh) == profile

        stf = resample(short_preamble(), WIFI_SAMPLE_RATE,
                       units.BASEBAND_RATE)
        rx = awgn(3000, 1e-6, rng)
        rx[500:500 + stf.size] += 0.3 * stf
        events = [[(d.time, d.source, d.protocol) for d in dev.run(rx)
                   .detections] for dev in (device, fresh)]
        assert events[0] == events[1]
        assert ("wifi" in {protocol for _t, _s, protocol in events[0]})

    def test_legacy_profile_disarms_a_banked_device(self,
                                                    configured_device):
        profile = snapshot_profile(configured_device)
        assert profile["detection"]["banks"] == []
        device = _banked_jammer().device
        assert device.core.bank_count == 2
        apply_profile(device, profile)
        assert device.core.bank_count == 0
        assert snapshot_profile(device)["detection"] == \
            profile["detection"]

    def test_profile_without_bank_entries_means_legacy(self,
                                                       configured_device):
        profile = snapshot_profile(configured_device)
        del profile["detection"]["banks"]
        device = _banked_jammer().device
        apply_profile(device, profile)
        assert device.core.bank_count == 0


class TestEachRegisterFileReportsItsOwnWords:
    """A banked device still holds the legacy registers' template and
    threshold; the snapshot reads every register file's own words, not
    whatever the running correlator holds."""

    LEGACY = (wifi_short_preamble_template(), 11_111)
    BANKS = ((dsss_preamble_template(), 12_000),
             (wifi_long_preamble_template(), 13_000))

    @pytest.fixture
    def device(self) -> UsrpN210:
        device = UsrpN210()
        driver = UhdDriver(device)
        template, threshold = self.LEGACY
        driver.set_correlator_template(template)
        driver.set_xcorr_threshold(threshold)
        driver.set_correlator_banks(
            [template for template, _threshold in self.BANKS],
            [threshold for _template, threshold in self.BANKS],
            labels=["dsss", "wifi-long"])
        return device

    @staticmethod
    def _words(template) -> tuple[list[int], list[int]]:
        coeffs_i, coeffs_q = quantize_coefficients(template)
        return coeffs_i.tolist(), coeffs_q.tolist()

    def test_snapshot_reports_each_file(self, device):
        detection = snapshot_profile(device)["detection"]
        template, threshold = self.LEGACY
        assert (detection["coeffs_i"], detection["coeffs_q"]) \
            == self._words(template)
        assert detection["xcorr_threshold"] == threshold
        assert [(bank["coeffs_i"], bank["coeffs_q"], bank["threshold"])
                for bank in detection["banks"]] \
            == [(*self._words(template), threshold)
                for template, threshold in self.BANKS]
        # The running correlator holds bank 0, not the legacy file.
        assert device.core.correlator.threshold == 12_000

    def test_round_trip_onto_a_fresh_device(self, device):
        profile = snapshot_profile(device)
        fresh = UsrpN210()
        apply_profile(fresh, profile)
        assert snapshot_profile(fresh) == profile


class TestFiles:
    def test_save_and_load(self, configured_device, tmp_path):
        path = tmp_path / "jammer.json"
        save_profile(configured_device, path)
        fresh = UsrpN210()
        writes = load_profile(fresh, path)
        assert writes > 15  # coefficients + all settings
        assert snapshot_profile(fresh)["detection"]["xcorr_threshold"] == 23_456

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), "/nonexistent/profile.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), path)

    def test_malformed_profile(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"version": 1, "name": "x"}))
        with pytest.raises(ConfigurationError):
            load_profile(UsrpN210(), path)

    def test_wrong_version(self, configured_device):
        profile = snapshot_profile(configured_device)
        profile["version"] = 99
        with pytest.raises(ConfigurationError):
            apply_profile(UsrpN210(), profile)


class TestConsoleIntegration:
    def test_console_save_load(self, tmp_path):
        from repro.tools.console import JammerConsole

        console = JammerConsole()
        console.execute("template wimax")
        console.execute("threshold 11950")
        console.execute("trigger xcorr")
        path = tmp_path / "wimax.json"
        assert "saved" in console.execute(f"save {path}")

        other = JammerConsole()
        assert "loaded" in other.execute(f"load {path}")
        assert other.device.core.correlator.threshold == 11950

    def test_console_load_error_reported(self):
        from repro.tools.console import JammerConsole

        console = JammerConsole()
        assert "error" in console.execute("load /no/such/file.json")
