"""Tests for byte-level 802.11 frame formats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DecodeError
from repro.mac.dot11 import (
    FrameType,
    build_ack_frame,
    build_data_frame,
    build_deauth_frame,
    mac_address,
    parse_frame,
)


@pytest.fixture
def addresses():
    return mac_address(1), mac_address(2), mac_address(3)


class TestAddresses:
    def test_locally_administered(self):
        addr = mac_address(42)
        assert len(addr) == 6
        assert addr[0] & 0x02  # locally administered bit

    def test_distinct(self):
        assert mac_address(1) != mac_address(2)

    def test_suffix_bounds(self):
        with pytest.raises(ConfigurationError):
            mac_address(1 << 24)


class TestDataFrames:
    def test_roundtrip(self, addresses, rng):
        dst, src, bssid = addresses
        payload = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        mpdu = build_data_frame(dst, src, bssid, payload, sequence=7)
        header, body = parse_frame(mpdu)
        assert header.frame_type is FrameType.DATA
        assert header.sequence == 7
        assert body == payload

    def test_to_ds_address_order(self, addresses):
        dst, src, bssid = addresses
        mpdu = build_data_frame(dst, src, bssid, b"x", to_ds=True)
        header, _ = parse_frame(mpdu)
        assert header.addr1 == bssid
        assert header.addr2 == src
        assert header.addr3 == dst

    def test_from_ds_address_order(self, addresses):
        dst, src, bssid = addresses
        mpdu = build_data_frame(dst, src, bssid, b"x", to_ds=False)
        header, _ = parse_frame(mpdu)
        assert header.addr1 == dst
        assert header.addr2 == bssid

    def test_sequence_bounds(self, addresses):
        dst, src, bssid = addresses
        with pytest.raises(ConfigurationError):
            build_data_frame(dst, src, bssid, b"x", sequence=4096)

    def test_bad_address_length(self, addresses):
        dst, src, _ = addresses
        with pytest.raises(ConfigurationError):
            build_data_frame(dst, src, b"abc", b"x")


class TestControlAndManagement:
    def test_ack_roundtrip(self, addresses):
        dst, _src, _bssid = addresses
        mpdu = build_ack_frame(dst)
        assert len(mpdu) == 14
        header, body = parse_frame(mpdu)
        assert header.frame_type is FrameType.ACK
        assert header.addr1 == dst
        assert body == b""

    def test_deauth_roundtrip(self, addresses):
        dst, src, bssid = addresses
        mpdu = build_deauth_frame(dst, src, bssid, reason=7)
        header, body = parse_frame(mpdu)
        assert header.frame_type is FrameType.DEAUTH
        assert int.from_bytes(body, "little") == 7

    def test_deauth_reason_bounds(self, addresses):
        dst, src, bssid = addresses
        with pytest.raises(ConfigurationError):
            build_deauth_frame(dst, src, bssid, reason=1 << 16)


class TestParsing:
    def test_corrupted_fcs_rejected(self, addresses, rng):
        dst, src, bssid = addresses
        mpdu = bytearray(build_data_frame(dst, src, bssid, b"payload"))
        mpdu[5] ^= 0x40
        with pytest.raises(DecodeError):
            parse_frame(bytes(mpdu))

    def test_truncated_frame_rejected(self):
        from repro.phy.bits import append_fcs

        with pytest.raises(DecodeError):
            parse_frame(append_fcs(b"\x08\x00"))

    def test_unknown_type_rejected(self):
        from repro.phy.bits import append_fcs

        # type 3 is reserved.
        frame = append_fcs(bytes([0x0C, 0x00]) + b"\x00" * 22)
        with pytest.raises(DecodeError):
            parse_frame(frame)


class TestOverTheAir:
    def test_forged_deauth_decodes_at_victim(self, addresses, rng):
        # The full spoofed-deauth chain: forge, modulate, decode.
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
        from repro.phy.wifi.params import WifiRate
        from repro.phy.wifi.receiver import WifiReceiver

        dst, src, bssid = addresses
        mpdu = build_deauth_frame(dst, src, bssid)
        wave = build_ppdu(mpdu, WifiFrameConfig(rate=WifiRate.MBPS_6))
        rx = wave + 0.01 * (rng.standard_normal(wave.size)
                            + 1j * rng.standard_normal(wave.size))
        result = WifiReceiver().receive(rx)
        header, body = parse_frame(result.psdu)
        assert header.frame_type is FrameType.DEAUTH
        assert header.addr1 == dst
