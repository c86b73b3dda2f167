"""Tests for the channel package: AWGN, attenuators, splitter, mixing."""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.channel.attenuator import Attenuator, VariableAttenuator
from repro.channel.awgn import AwgnChannel, awgn
from repro.channel.combining import Transmission, mix_at_port
from repro.channel.splitter import PAPER_TABLE1_DB, FivePortNetwork
from repro.errors import ConfigurationError


class TestAwgn:
    def test_power_calibrated(self, rng):
        noise = awgn(200_000, 2.5, rng)
        assert units.signal_power(noise) == pytest.approx(2.5, rel=0.02)

    def test_zero_power_is_silence(self, rng):
        assert not awgn(100, 0.0, rng).any()

    @pytest.mark.parametrize("n", [0, 1, 591, 592, 4097])
    @pytest.mark.parametrize("power", [0.0, 1e-4, 2.5])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_bytes_match_two_call_reference(self, n, power, in_place):
        """One 2n draw equals real draws, then imaginary, then scaling."""
        ref_rng = np.random.default_rng(1234 + n)
        expected = np.zeros(n, dtype=np.complex128)
        if power:
            expected.real = ref_rng.standard_normal(n)
            expected.imag = ref_rng.standard_normal(n)
            expected *= np.sqrt(power / 2.0)
        rng = np.random.default_rng(1234 + n)
        out = np.full(n, np.nan, dtype=np.complex128) if in_place else None
        got = awgn(n, power, rng, out=out)
        assert got.tobytes() == expected.tobytes()
        if in_place:
            assert got is out
        # The generator is left where the two-call reference leaves it.
        assert rng.random() == ref_rng.random()

    def test_rejects_negative(self, rng):
        with pytest.raises(ConfigurationError):
            awgn(10, -1.0, rng)
        with pytest.raises(ConfigurationError):
            awgn(-1, 1.0, rng)

    def test_channel_snr_calibration(self, rng):
        chan = AwgnChannel(noise_power=1.0, seed=3)
        signal = np.exp(2j * np.pi * 0.05 * np.arange(100_000))
        rx = chan.transmit_at_snr(signal, snr_db=7.0)
        measured = units.signal_power(rx)
        # total power = signal + noise = 10^0.7 + 1
        assert measured == pytest.approx(units.db_to_linear(7.0) + 1.0, rel=0.03)

    def test_noise_only_segment(self):
        chan = AwgnChannel(noise_power=0.5, seed=1)
        seg = chan.noise_only(100_000)
        assert units.signal_power(seg) == pytest.approx(0.5, rel=0.03)

    def test_reproducible_by_seed(self):
        a = AwgnChannel(seed=42).noise_only(100)
        b = AwgnChannel(seed=42).noise_only(100)
        assert np.array_equal(a, b)


class TestAttenuators:
    def test_twenty_db_pad(self):
        pad = Attenuator(20.0)
        x = np.ones(10, dtype=complex)
        out = pad.apply(x)
        assert units.signal_power(out) == pytest.approx(0.01)

    def test_zero_loss_identity(self, rng):
        x = rng.standard_normal(16) + 0j
        assert np.allclose(Attenuator(0.0).apply(x), x)

    def test_rejects_gain(self):
        with pytest.raises(ConfigurationError):
            Attenuator(-3.0)

    def test_variable_snaps_to_step(self):
        var = VariableAttenuator(step_db=0.5)
        var.set_loss(10.3)
        assert var.loss_db == pytest.approx(10.5)

    def test_variable_limits(self):
        var = VariableAttenuator(max_db=60.0)
        with pytest.raises(ConfigurationError):
            var.set_loss(61.0)
        with pytest.raises(ConfigurationError):
            var.set_loss(-1.0)


class TestFivePortNetwork:
    def test_paper_table_values(self):
        net = FivePortNetwork()
        assert net.loss_db(1, 2) == pytest.approx(-51.0)
        assert net.loss_db(4, 1) == pytest.approx(-38.4)
        assert net.loss_db(2, 5) == pytest.approx(-32.8)

    def test_jammer_ports_isolated(self):
        net = FivePortNetwork()
        assert net.loss_db(4, 5) is None
        assert net.loss_db(5, 4) is None
        assert net.path_gain(4, 5) == 0.0

    def test_propagate_scales_amplitude(self):
        net = FivePortNetwork()
        x = np.ones(100, dtype=complex)
        out = net.propagate(x, 1, 3)
        assert units.signal_power_db(out) == pytest.approx(-25.2)

    def test_deliver_superposes(self):
        net = FivePortNetwork()
        a = np.ones(10, dtype=complex)
        b = np.ones(10, dtype=complex) * 1j
        out = net.deliver({2: a, 4: b}, dst=1, n_samples=10)
        expected = (net.propagate(a, 2, 1) + net.propagate(b, 4, 1))
        assert np.allclose(out, expected)

    def test_deliver_ignores_own_injection(self):
        net = FivePortNetwork()
        out = net.deliver({1: np.ones(4, dtype=complex)}, dst=1, n_samples=4)
        assert not out.any()

    def test_vna_recovers_table(self):
        net = FivePortNetwork()
        measured = net.vna_characterize()
        for (src, dst), loss in PAPER_TABLE1_DB.items():
            if loss is None:
                assert measured[(src, dst)] is None
            else:
                assert measured[(src, dst)] == pytest.approx(loss, abs=0.01)

    def test_self_loss_undefined(self):
        with pytest.raises(ConfigurationError):
            FivePortNetwork().loss_db(1, 1)

    def test_rejects_gain_in_table(self):
        with pytest.raises(ConfigurationError):
            FivePortNetwork({(1, 2): 3.0})

    def test_rejects_bad_port(self):
        with pytest.raises(ConfigurationError):
            FivePortNetwork().loss_db(0, 1)
        with pytest.raises(ConfigurationError):
            FivePortNetwork().loss_db(1, 6)


class TestMixAtPort:
    def test_single_transmission_power(self, rng):
        sig = np.exp(2j * np.pi * 0.1 * np.arange(50_000))
        out = mix_at_port(
            [Transmission(sig, 25e6, start_time=0.0, power=4.0)],
            out_rate=25e6, duration=50_000 / 25e6,
        )
        assert units.signal_power(out) == pytest.approx(4.0, rel=0.02)

    def test_start_time_offsets(self, rng):
        sig = np.ones(100, dtype=complex)
        out = mix_at_port(
            [Transmission(sig, 25e6, start_time=4e-6, power=1.0)],
            out_rate=25e6, duration=12e-6,
        )
        assert not out[:100].any()
        assert np.all(np.abs(out[100:200]) > 0)

    def test_rate_conversion_applied(self):
        sig = np.ones(160, dtype=complex)  # 8 us at 20 MSPS
        out = mix_at_port(
            [Transmission(sig, 20e6, start_time=0.0, power=1.0)],
            out_rate=25e6, duration=10e-6,
        )
        # Occupies ~200 samples at 25 MSPS.
        energy = np.abs(out) > 0.1
        assert 180 < int(np.sum(energy)) <= 210

    def test_noise_floor(self, rng):
        out = mix_at_port([], out_rate=25e6, duration=4e-5,
                          noise_power=0.5, rng=rng)
        assert units.signal_power(out) == pytest.approx(0.5, rel=0.1)

    def test_noise_requires_rng(self):
        with pytest.raises(ConfigurationError):
            mix_at_port([], out_rate=25e6, duration=1e-5, noise_power=1.0)

    def test_superposition(self, rng):
        a = np.ones(100, dtype=complex)
        out = mix_at_port(
            [Transmission(a, 25e6, 0.0, power=1.0),
             Transmission(a, 25e6, 0.0, power=1.0)],
            out_rate=25e6, duration=4e-6,
        )
        # Two coherent unit-power copies: amplitude doubles.
        assert units.signal_power(out[:100]) == pytest.approx(4.0, rel=0.01)

    def test_transmission_validation(self):
        with pytest.raises(ConfigurationError):
            Transmission(np.ones(4, dtype=complex), -1.0)
        with pytest.raises(ConfigurationError):
            Transmission(np.ones(4, dtype=complex), 25e6, start_time=-1.0)
        with pytest.raises(ConfigurationError):
            Transmission(np.ones(4, dtype=complex), 25e6, power=-1.0)
