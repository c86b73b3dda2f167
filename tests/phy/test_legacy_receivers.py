"""Tests for the 802.11b DSSS and 802.15.4 receivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.phy.wifi.dsss import build_dsss_ppdu
from repro.phy.wifi.dsss_receiver import DsssReceiver
from repro.phy.zigbee.frame import build_ppdu as build_zigbee_ppdu
from repro.phy.zigbee.receiver import ZigbeeReceiver


class TestDsssReceiver:
    def test_clean_roundtrip(self, rng):
        psdu = rng.integers(0, 256, 40, dtype=np.uint8).tobytes()
        wave = build_dsss_ppdu(psdu)
        result = DsssReceiver().receive(wave)
        assert result.psdu == psdu
        assert result.signal_rate == 0x0A

    def test_roundtrip_with_noise(self, rng):
        psdu = rng.integers(0, 256, 25, dtype=np.uint8).tobytes()
        wave = build_dsss_ppdu(psdu)
        rx = wave + 0.15 * (rng.standard_normal(wave.size)
                            + 1j * rng.standard_normal(wave.size))
        assert DsssReceiver().receive(rx).psdu == psdu

    def test_phase_rotation_tolerated(self, rng):
        # DBPSK is differentially coherent: any fixed carrier phase.
        psdu = rng.integers(0, 256, 20, dtype=np.uint8).tobytes()
        wave = build_dsss_ppdu(psdu) * np.exp(1j * 2.1)
        assert DsssReceiver().receive(wave).psdu == psdu

    def test_spreading_gain_at_low_snr(self, rng):
        # Barker-11 spreading buys ~10.4 dB: decodes below 0 dB SNR.
        psdu = rng.integers(0, 256, 20, dtype=np.uint8).tobytes()
        wave = build_dsss_ppdu(psdu)
        noise_amp = 10 ** (3.0 / 20)  # SNR = -3 dB
        rx = wave + noise_amp * (rng.standard_normal(wave.size)
                                 + 1j * rng.standard_normal(wave.size)) \
            / np.sqrt(2)
        assert DsssReceiver().receive(rx).psdu == psdu

    def test_noise_only_raises(self, rng):
        noise = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        with pytest.raises(DecodeError):
            DsssReceiver().receive(noise)

    def test_length_field_respected(self, rng):
        psdu = rng.integers(0, 256, 10, dtype=np.uint8).tobytes()
        result = DsssReceiver().receive(build_dsss_ppdu(psdu))
        assert result.length_us == 80  # 10 bytes at 1 Mb/s


class TestZigbeeReceiver:
    def test_clean_roundtrip(self, rng):
        psdu = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
        wave = build_zigbee_ppdu(psdu)
        result = ZigbeeReceiver().receive(wave)
        assert result.psdu == psdu

    def test_roundtrip_with_noise(self, rng):
        psdu = rng.integers(0, 256, 20, dtype=np.uint8).tobytes()
        wave = build_zigbee_ppdu(psdu)
        rx = wave + 0.3 * (rng.standard_normal(wave.size)
                           + 1j * rng.standard_normal(wave.size))
        assert ZigbeeReceiver().receive(rx).psdu == psdu

    def test_spreading_gain_at_negative_snr(self, rng):
        # 32-chip near-orthogonal sequences decode well below 0 dB.
        psdu = rng.integers(0, 256, 12, dtype=np.uint8).tobytes()
        wave = build_zigbee_ppdu(psdu)
        noise_amp = 10 ** (2.0 / 20)  # SNR = -2 dB
        rx = wave + noise_amp * (rng.standard_normal(wave.size)
                                 + 1j * rng.standard_normal(wave.size)) \
            / np.sqrt(2)
        assert ZigbeeReceiver().receive(rx).psdu == psdu

    def test_synchronize_locates_start(self, rng):
        psdu = rng.integers(0, 256, 10, dtype=np.uint8).tobytes()
        wave = build_zigbee_ppdu(psdu)
        start = ZigbeeReceiver().synchronize(wave)
        # The builder starts the frame at sample 0 (chip grid).
        assert start % 2 == 0
        assert start <= 64

    def test_noise_only_raises(self, rng):
        noise = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        with pytest.raises(DecodeError):
            ZigbeeReceiver().receive(noise)

    def test_short_capture_raises(self):
        with pytest.raises(DecodeError):
            ZigbeeReceiver().receive(np.zeros(50, dtype=complex))


class TestJammedLegacyFrames:
    def test_jam_burst_breaks_zigbee_frame(self, rng):
        # Close the loop with the baseline experiment: a burst from
        # the jammer during the PSDU corrupts the decode.
        psdu = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
        wave = build_zigbee_ppdu(psdu)
        jammed = wave.copy()
        hit = slice(wave.size // 2, wave.size // 2 + 800)
        jammed[hit] += 3.0 * (rng.standard_normal(800)
                              + 1j * rng.standard_normal(800))
        try:
            result = ZigbeeReceiver().receive(jammed)
            decoded = result.psdu
        except DecodeError:
            decoded = None
        assert decoded != psdu
