"""Tests for the 802.15.4 and 802.11b DSSS PHYs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.wifi.dsss import (
    BARKER,
    DSSS_SAMPLE_RATE,
    build_dsss_ppdu,
    differential_encode,
    dsss_ppdu_duration_s,
    long_preamble_waveform,
    scramble_bits,
    spread_and_shape,
)
from repro.phy.zigbee import params as zp
from repro.phy.zigbee.frame import (
    build_ppdu,
    oqpsk_modulate,
    ppdu_duration_s,
    preamble_duration_s,
    preamble_waveform,
)


class TestZigbeeChips:
    def test_sixteen_distinct_sequences(self):
        seqs = [tuple(zp.chip_sequence(s)) for s in range(16)]
        assert len(set(seqs)) == 16

    def test_shift_structure(self):
        base = zp.chip_sequence(0)
        for s in range(8):
            assert np.array_equal(zp.chip_sequence(s), np.roll(base, 4 * s))

    def test_conjugate_structure(self):
        for s in range(8):
            lower = zp.chip_sequence(s)
            upper = zp.chip_sequence(s + 8)
            assert np.array_equal(upper[0::2], lower[0::2])
            assert np.array_equal(upper[1::2], lower[1::2] ^ 1)

    def test_near_orthogonality(self):
        # Bipolar cross-correlation between distinct symbols stays low
        # relative to the 32-chip autocorrelation peak.
        bip = [1 - 2 * zp.chip_sequence(s).astype(int) for s in range(16)]
        for i in range(16):
            assert np.dot(bip[i], bip[i]) == 32
        worst = max(abs(np.dot(bip[i], bip[j]))
                    for i in range(16) for j in range(16) if i != j)
        assert worst <= 12

    def test_symbol_range_checked(self):
        with pytest.raises(ConfigurationError):
            zp.chip_sequence(16)

    def test_octet_nibble_order(self):
        symbols = zp.octets_to_symbols(bytes([0xA7]))
        assert list(symbols) == [0x7, 0xA]

    def test_rates(self):
        assert zp.BIT_RATE == 250_000
        assert zp.SYMBOL_RATE == 62_500


class TestZigbeeWaveform:
    def test_preamble_duration(self):
        assert preamble_duration_s() == pytest.approx(128e-6)
        assert preamble_waveform().size >= 256 * zp.SAMPLES_PER_CHIP

    def test_ppdu_duration(self):
        # 6 header octets + PSDU, 32 us per octet.
        assert ppdu_duration_s(10) == pytest.approx((6 + 10) * 32e-6)

    def test_unit_power(self):
        wf = preamble_waveform()
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(1.0)

    def test_constant_envelope_core(self):
        # Half-sine O-QPSK is nearly constant-envelope away from edges.
        wf = preamble_waveform()
        core = np.abs(wf[50:-50])
        assert np.std(core) / np.mean(core) < 0.25

    def test_oqpsk_needs_even_chips(self):
        with pytest.raises(ConfigurationError):
            oqpsk_modulate(np.zeros(31, dtype=np.uint8))

    def test_build_ppdu_validation(self):
        with pytest.raises(ConfigurationError):
            build_ppdu(b"")
        with pytest.raises(ConfigurationError):
            build_ppdu(b"x" * 200)

    def test_preamble_is_periodic(self):
        # Eight identical zero-symbols: the waveform repeats with the
        # 32-chip (64-sample) period away from the rail edges.
        wf = preamble_waveform()
        period = zp.CHIPS_PER_SYMBOL * zp.SAMPLES_PER_CHIP
        a = wf[period:2 * period]
        b = wf[2 * period:3 * period]
        assert np.allclose(a, b, atol=1e-9)


class TestDsss:
    def test_barker_autocorrelation(self):
        # Barker-11's defining property: off-peak |autocorr| <= 1.
        full = np.correlate(BARKER.astype(float), BARKER.astype(float),
                            mode="full")
        peak = full[10]
        assert peak == 11
        off = np.delete(full, 10)
        assert np.max(np.abs(off)) <= 1

    def test_scrambler_self_synchronizing(self):
        bits = np.ones(64, dtype=np.uint8)
        out = scramble_bits(bits)
        assert out.size == 64
        assert 10 < int(np.sum(out)) < 54  # looks random-ish

    def test_differential_encoding(self):
        phases = differential_encode(np.array([0, 1, 1, 0], dtype=np.uint8))
        assert list(phases) == [1, -1, 1, 1]

    def test_spreading_length(self):
        out = spread_and_shape(np.array([1, -1], dtype=np.int8))
        assert out.size == 2 * 11 * 2  # bits * chips * samples/chip

    def test_preamble_duration_144us(self):
        wf = long_preamble_waveform()
        assert wf.size / DSSS_SAMPLE_RATE == pytest.approx(144e-6)

    def test_ppdu_duration(self):
        # 192 us PLCP + 8 us/byte at 1 Mb/s.
        assert dsss_ppdu_duration_s(100) == pytest.approx(192e-6 + 800e-6)

    def test_ppdu_unit_power(self, rng):
        psdu = rng.integers(0, 256, 20, dtype=np.uint8).tobytes()
        wf = build_dsss_ppdu(psdu)
        assert np.mean(np.abs(wf) ** 2) == pytest.approx(1.0)

    def test_ppdu_validation(self):
        with pytest.raises(ConfigurationError):
            build_dsss_ppdu(b"")

    def test_preamble_deterministic(self):
        assert np.array_equal(long_preamble_waveform(),
                              long_preamble_waveform())


class TestNewTemplates:
    def test_zigbee_template(self):
        from repro.core.coeffs import zigbee_preamble_template

        template = zigbee_preamble_template()
        assert template.size == 64

    def test_dsss_template(self):
        from repro.core.coeffs import dsss_preamble_template

        template = dsss_preamble_template()
        assert template.size == 64

    def test_zigbee_template_detects_preamble(self, rng):
        from repro import units
        from repro.channel.combining import Transmission, mix_at_port
        from repro.core.coeffs import zigbee_preamble_template
        from repro.hw.cross_correlator import (
            CrossCorrelator,
            quantize_coefficients,
        )

        rx = mix_at_port(
            [Transmission(preamble_waveform(), zp.ZIGBEE_SAMPLE_RATE,
                          start_time=40e-6,
                          power=units.db_to_linear(10.0) * 1e-4)],
            out_rate=25e6, duration=300e-6, noise_power=1e-4, rng=rng)
        ci, cq = quantize_coefficients(zigbee_preamble_template())
        corr = CrossCorrelator(ci, cq, threshold=25_000)
        assert corr.detect(rx).any()

    def test_dsss_template_detects_preamble(self, rng):
        from repro import units
        from repro.channel.combining import Transmission, mix_at_port
        from repro.core.coeffs import dsss_preamble_template
        from repro.hw.cross_correlator import (
            CrossCorrelator,
            quantize_coefficients,
        )

        rx = mix_at_port(
            [Transmission(long_preamble_waveform(), DSSS_SAMPLE_RATE,
                          start_time=40e-6,
                          power=units.db_to_linear(10.0) * 1e-4)],
            out_rate=25e6, duration=300e-6, noise_power=1e-4, rng=rng)
        # The DSSS waveform is real-valued (BPSK chips), so only the I
        # coefficient bank carries energy and the metric scale is half
        # that of the complex templates.
        ci, cq = quantize_coefficients(dsss_preamble_template())
        assert not cq.any()
        corr = CrossCorrelator(ci, cq, threshold=12_000)
        assert corr.detect(rx).any()


class TestZigbeeExperiment:
    def test_baseline_easy_case(self):
        from repro.experiments.zigbee_jamming import run_experiment

        result = run_experiment(n_frames=6)
        assert result.detection_rate == 1.0
        assert result.pre_sfd_jam_rate == 1.0
        assert result.mean_response_margin_s > 20e-6

    def test_margin_table_ordering(self):
        from repro.experiments.zigbee_jamming import response_margin_table

        margins = response_margin_table()
        # Low-rate Zigbee gives by far the largest reaction margin —
        # the paper's motivation in quantitative form.
        assert margins["802.15.4 (250 kb/s)"] > margins["802.16e (10 MHz DL)"] \
            > margins["802.11g (54 Mb/s)"] > 0


class TestJammedZigbeeAtReceiver:
    def test_pre_sfd_burst_prevents_decode(self, rng):
        """Close the baseline loop at the receiver: the jam burst that
        the 802.15.4 experiment lands before the SFD stops a real
        receiver from ever synchronizing to the frame."""
        from repro.phy.zigbee.receiver import ZigbeeReceiver
        from repro.errors import DecodeError

        psdu = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
        wave = build_ppdu(psdu)
        jammed = wave.copy()
        # Burst over the mid-preamble (where the experiment lands it).
        hit = slice(400, 400 + 600)
        jammed[hit] += 3.0 * (rng.standard_normal(600)
                              + 1j * rng.standard_normal(600))
        try:
            result = ZigbeeReceiver().receive(jammed)
            decoded = result.psdu
        except DecodeError:
            decoded = None
        assert decoded != psdu
