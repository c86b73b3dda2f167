"""Tests for the multipath channel and its interaction with both sides."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.multipath import (
    TappedDelayLine,
    indoor_rayleigh,
    line_of_sight,
    two_ray,
)
from repro.errors import ConfigurationError


class TestTappedDelayLine:
    def test_line_of_sight_is_identity(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.allclose(line_of_sight().apply(x), x)

    def test_echo_adds_delayed_copy(self):
        tdl = TappedDelayLine(delays=(0, 3), gains=(1.0, 0.5))
        x = np.zeros(10, dtype=complex)
        x[0] = 1.0
        out = tdl.apply(x)
        assert out[0] == 1.0
        assert out[3] == 0.5

    def test_normalized_unit_power(self, rng):
        tdl = two_ray(delay_samples=4, echo_db=-3.0)
        power = np.sum(np.abs(tdl.impulse_response) ** 2)
        assert power == pytest.approx(1.0)

    def test_delay_spread(self):
        tdl = TappedDelayLine(delays=(0, 2, 9), gains=(1, 0.5, 0.1))
        assert tdl.delay_spread == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TappedDelayLine(delays=(), gains=())
        with pytest.raises(ConfigurationError):
            TappedDelayLine(delays=(0, 0), gains=(1, 1))
        with pytest.raises(ConfigurationError):
            TappedDelayLine(delays=(-1,), gains=(1,))
        with pytest.raises(ConfigurationError):
            two_ray(delay_samples=0)

    def test_rayleigh_profile_shape(self, rng):
        tdl = indoor_rayleigh(rng, n_taps=4, tap_spacing=2)
        assert tdl.delays == (0, 2, 4, 6)
        assert np.sum(np.abs(tdl.impulse_response) ** 2) == pytest.approx(1.0)


class TestOfdmUnderMultipath:
    def test_receiver_equalizes_within_cp(self, rng):
        # Delay spread inside the 16-sample cyclic prefix: the
        # per-subcarrier equalizer absorbs it completely.
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
        from repro.phy.wifi.params import WifiRate
        from repro.phy.wifi.receiver import WifiReceiver

        psdu = rng.integers(0, 256, 150, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu, WifiFrameConfig(rate=WifiRate.MBPS_24))
        channel = two_ray(delay_samples=6, echo_db=-4.0)
        rx = channel.apply(wave)
        rx += 0.005 * (rng.standard_normal(rx.size)
                       + 1j * rng.standard_normal(rx.size))
        result = WifiReceiver().receive(rx)
        assert result.psdu == psdu

    def test_receiver_survives_indoor_rayleigh(self, rng):
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
        from repro.phy.wifi.params import WifiRate
        from repro.phy.wifi.receiver import WifiReceiver

        psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu, WifiFrameConfig(rate=WifiRate.MBPS_12))
        decoded = 0
        trials = 10
        for k in range(trials):
            channel = indoor_rayleigh(np.random.default_rng(100 + k))
            rx = channel.apply(wave)
            rx += 0.005 * (rng.standard_normal(rx.size)
                           + 1j * rng.standard_normal(rx.size))
            try:
                if WifiReceiver().receive(rx).psdu == psdu:
                    decoded += 1
            except Exception:
                pass
        # Most static indoor realizations decode at QPSK (deep fades
        # on individual carriers occasionally break a frame).
        assert decoded >= trials // 2


class TestJammerUnderMultipath:
    def test_correlator_detects_through_two_ray(self, rng):
        from repro import units
        from repro.channel.combining import Transmission, mix_at_port
        from repro.core.coeffs import wifi_short_preamble_template
        from repro.hw.cross_correlator import (
            CrossCorrelator,
            quantize_coefficients,
        )
        from repro.phy.wifi.frame import WifiFrameConfig, build_ppdu
        from repro.phy.wifi.params import WIFI_SAMPLE_RATE

        psdu = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu, WifiFrameConfig())
        channel = two_ray(delay_samples=5, echo_db=-5.0)
        faded = channel.apply(wave)
        rx = mix_at_port(
            [Transmission(faded, WIFI_SAMPLE_RATE, 40e-6,
                          power=units.db_to_linear(15.0) * 1e-4)],
            out_rate=units.BASEBAND_RATE, duration=300e-6,
            noise_power=1e-4, rng=rng)
        ci, cq = quantize_coefficients(wifi_short_preamble_template())
        corr = CrossCorrelator(ci, cq, threshold=22_000)
        assert corr.detect(rx).any()
