"""Tests for the 802.11g PHY: preambles, SIGNAL, frames, receiver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DecodeError
from repro.phy.wifi import params as p
from repro.phy.wifi.frame import (
    WifiFrameConfig,
    build_data_field,
    build_ppdu,
    build_signal_field,
    ppdu_duration_us,
    ppdu_sample_length,
)
from repro.phy.wifi.preamble import (
    LONG_GUARD,
    SHORT_PERIOD,
    SHORT_REPEATS,
    long_preamble,
    long_training_symbol,
    short_preamble,
    short_training_symbol,
)
from repro.phy.wifi.receiver import WifiReceiver
from repro.phy.wifi.signal_field import (
    decode_signal_symbol,
    encode_signal_bits,
    signal_to_coded_symbol,
)


class TestParams:
    def test_rate_table_complete(self):
        assert len(p.RATE_PARAMETERS) == 8
        for rate, rp in p.RATE_PARAMETERS.items():
            assert rp.n_cbps == 48 * rp.n_bpsc
            # n_dbps = n_cbps * code rate
            assert rp.n_dbps == pytest.approx(rp.n_cbps * rp.code_rate.ratio)

    def test_rates_in_mbps(self):
        # n_dbps per 4 us symbol must equal the advertised Mbps.
        for rate, rp in p.RATE_PARAMETERS.items():
            assert rp.n_dbps / 4.0 == rate.mbps

    def test_signal_bits_unique(self):
        encodings = [rp.signal_bits for rp in p.RATE_PARAMETERS.values()]
        assert len(set(encodings)) == 8

    def test_data_subcarrier_count(self):
        assert p.DATA_SUBCARRIERS.size == 48
        assert p.PILOT_SUBCARRIERS.size == 4
        assert not set(p.PILOT_SUBCARRIERS) & set(p.DATA_SUBCARRIERS)

    def test_pilot_polarity_length(self):
        assert p.PILOT_POLARITY.size == 127
        assert set(np.unique(p.PILOT_POLARITY)) == {-1.0, 1.0}

    def test_symbol_count_formula(self):
        # 100-byte PSDU at 54 Mbps: ceil((16+800+6)/216) = 4 symbols.
        assert p.data_symbols_for_psdu(100, p.WifiRate.MBPS_54) == 4
        # at 6 Mbps: ceil(822/24) = 35.
        assert p.data_symbols_for_psdu(100, p.WifiRate.MBPS_6) == 35


class TestPreambles:
    def test_short_preamble_structure(self):
        stf = short_preamble()
        assert stf.size == SHORT_REPEATS * SHORT_PERIOD == 160
        period = short_training_symbol()
        for k in range(SHORT_REPEATS):
            assert np.allclose(stf[k * 16:(k + 1) * 16], period)

    def test_short_preamble_duration_8us(self):
        assert short_preamble().size / p.WIFI_SAMPLE_RATE == pytest.approx(8e-6)

    def test_long_preamble_structure(self):
        ltf = long_preamble()
        assert ltf.size == 160
        lts = long_training_symbol()
        assert np.allclose(ltf[:LONG_GUARD], lts[-LONG_GUARD:])
        assert np.allclose(ltf[32:96], lts)
        assert np.allclose(ltf[96:160], lts)

    def test_long_symbol_unit_power(self):
        lts = long_training_symbol()
        assert np.mean(np.abs(lts) ** 2) == pytest.approx(1.0)

    def test_long_symbol_spectrum(self):
        # Only carriers +-1..26 occupied, all with equal magnitude.
        freq = np.fft.fft(long_training_symbol())
        occupied = np.abs(freq) > 1e-6
        expected_bins = {k % 64 for k in range(-26, 27) if k != 0}
        assert set(np.flatnonzero(occupied)) == expected_bins
        mags = np.abs(freq[list(expected_bins)])
        assert np.allclose(mags, mags[0])

    def test_short_symbol_spectrum(self):
        # Short preamble occupies only multiples of 4 within +-24.
        period = short_training_symbol()
        freq = np.fft.fft(np.tile(period, 4))
        occupied = set(np.flatnonzero(np.abs(freq) > 1e-6))
        expected = {k % 64 for k in
                    (-24, -20, -16, -12, -8, -4, 4, 8, 12, 16, 20, 24)}
        assert occupied == expected


class TestSignalField:
    def test_bit_layout(self):
        bits = encode_signal_bits(p.WifiRate.MBPS_36, 1000)
        assert bits.size == 24
        assert bits[4] == 0           # reserved
        assert not bits[18:].any()    # tail
        length = sum(int(bits[5 + k]) << k for k in range(12))
        assert length == 1000

    def test_parity_even(self):
        for rate in p.WifiRate:
            bits = encode_signal_bits(rate, 777)
            assert int(np.sum(bits[:18])) % 2 == 0

    def test_roundtrip_all_rates(self):
        for rate in p.WifiRate:
            points = signal_to_coded_symbol(rate, 1234)
            decoded_rate, length = decode_signal_symbol(points)
            assert decoded_rate == rate
            assert length == 1234

    def test_length_bounds(self):
        with pytest.raises(ConfigurationError):
            encode_signal_bits(p.WifiRate.MBPS_6, 0)
        with pytest.raises(ConfigurationError):
            encode_signal_bits(p.WifiRate.MBPS_6, 4096)

    def test_corrupted_signal_raises(self, rng):
        points = signal_to_coded_symbol(p.WifiRate.MBPS_54, 100)
        garbage = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        with pytest.raises(DecodeError):
            decode_signal_symbol(garbage)


class TestFrameBuilder:
    def test_ppdu_length_formula(self, rng):
        psdu = rng.integers(0, 256, 321, dtype=np.uint8).tobytes()
        for rate in p.WifiRate:
            wf = build_ppdu(psdu, WifiFrameConfig(rate=rate))
            assert wf.size == ppdu_sample_length(321, rate)

    def test_duration_structure(self):
        # preamble 16 us + SIGNAL 4 us + symbols.
        assert ppdu_duration_us(100, p.WifiRate.MBPS_54) == pytest.approx(
            16 + 4 + 4 * 4)

    def test_unit_power(self, rng):
        psdu = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu)
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(1.0)

    def test_empty_psdu_rejected(self):
        with pytest.raises(ConfigurationError):
            build_ppdu(b"")

    def test_data_field_symbol_count(self, rng):
        psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        field = build_data_field(psdu, WifiFrameConfig(rate=p.WifiRate.MBPS_54))
        assert field.size == 4 * p.WIFI_OFDM.symbol_length

    def test_signal_field_is_one_symbol(self):
        assert build_signal_field(100, p.WifiRate.MBPS_6).size == 80

    def test_frame_starts_with_short_preamble(self, rng):
        psdu = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu)
        stf = short_preamble()
        # Same shape up to the overall power normalization.
        scale = wf[0] / stf[0]
        assert np.allclose(wf[:160], stf * scale)


class TestReceiver:
    @pytest.mark.parametrize("rate", list(p.WifiRate), ids=lambda r: r.name)
    def test_roundtrip_all_rates(self, rate, rng):
        psdu = rng.integers(0, 256, 150, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu, WifiFrameConfig(rate=rate, scrambler_seed=0x11))
        noise = 0.01
        rx = wf + noise * (rng.standard_normal(wf.size)
                           + 1j * rng.standard_normal(wf.size))
        pad = noise * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        result = WifiReceiver().receive(np.concatenate([pad, rx, pad]))
        assert result.psdu == psdu
        assert result.rate == rate
        assert result.length == 150

    def test_channel_gain_and_phase_equalized(self, rng):
        psdu = rng.integers(0, 256, 80, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu, WifiFrameConfig(rate=p.WifiRate.MBPS_24))
        channel = 0.35 * np.exp(1j * 2.1)
        rx = wf * channel
        rx += 0.002 * (rng.standard_normal(rx.size)
                       + 1j * rng.standard_normal(rx.size))
        result = WifiReceiver().receive(rx)
        assert result.psdu == psdu

    def test_noise_only_raises(self, rng):
        noise = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        with pytest.raises(DecodeError):
            WifiReceiver().receive(noise)

    def test_short_capture_raises(self):
        with pytest.raises(DecodeError):
            WifiReceiver().receive(np.zeros(64, dtype=complex))

    def test_scrambler_seed_recovered(self, rng):
        psdu = rng.integers(0, 256, 50, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu, WifiFrameConfig(scrambler_seed=0x2A))
        result = WifiReceiver().receive(
            wf + 0.01 * (rng.standard_normal(wf.size)
                         + 1j * rng.standard_normal(wf.size)))
        assert result.diagnostics["scrambler_seed"] == 0x2A

    def test_fails_gracefully_at_very_low_snr(self, rng):
        psdu = rng.integers(0, 256, 50, dtype=np.uint8).tobytes()
        wf = build_ppdu(psdu, WifiFrameConfig(rate=p.WifiRate.MBPS_54))
        rx = 0.01 * wf + (rng.standard_normal(wf.size)
                          + 1j * rng.standard_normal(wf.size))
        try:
            result = WifiReceiver().receive(rx)
        except DecodeError:
            return  # sync loss is the expected outcome
        assert result.psdu != psdu  # decoding garbage, not crashing
