"""Tests for the front-end impairment model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.ddc import DigitalDownConverter
from repro.hw.impairments import TYPICAL_N210, FrontEndImpairments


class TestValidation:
    def test_dc_offset_bounded(self):
        with pytest.raises(ConfigurationError):
            FrontEndImpairments(dc_offset=1.2)

    def test_iq_gain_bounded(self):
        with pytest.raises(ConfigurationError):
            FrontEndImpairments(iq_gain_imbalance_db=10.0)

    def test_phase_bounded(self):
        with pytest.raises(ConfigurationError):
            FrontEndImpairments(iq_phase_error_deg=60.0)

    def test_ideal_flag(self):
        assert FrontEndImpairments().is_ideal
        assert not TYPICAL_N210.is_ideal


class TestEffects:
    def test_ideal_is_identity(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = FrontEndImpairments().apply(x)
        assert np.array_equal(out, x)

    def test_dc_offset_shifts_mean(self, rng):
        imp = FrontEndImpairments(dc_offset=0.1 + 0.05j)
        x = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
        out = imp.apply(x)
        assert np.mean(out).real == pytest.approx(0.1, abs=0.01)
        assert np.mean(out).imag == pytest.approx(0.05, abs=0.01)

    def test_iq_gain_scales_q_only(self):
        imp = FrontEndImpairments(iq_gain_imbalance_db=6.0)
        x = np.array([1.0 + 1.0j])
        out = imp.apply(x)
        assert out[0].real == pytest.approx(1.0)
        assert out[0].imag == pytest.approx(10 ** 0.3, rel=1e-6)

    def test_phase_error_leaks_i_into_q(self):
        imp = FrontEndImpairments(iq_phase_error_deg=30.0)
        x = np.array([1.0 + 0.0j])  # pure I
        out = imp.apply(x)
        assert out[0].imag == pytest.approx(np.sin(np.deg2rad(30.0)))

    def test_cfo_rotates_linearly(self):
        # cfo_hz / sample_rate cycles per sample: 1/8 cycle here.
        imp = FrontEndImpairments(cfo_hz=25e6 / 8)
        x = np.ones(8, dtype=complex)
        out = imp.apply(x)
        # Sample 4 is rotated by half a cycle.
        assert out[4].real == pytest.approx(-1.0, abs=1e-9)

    def test_cfo_phase_continuous_across_chunks(self):
        imp = FrontEndImpairments(cfo_hz=123e3)
        x = np.ones(100, dtype=complex)
        whole = imp.apply(x, start_sample=0)
        parts = np.concatenate([
            imp.apply(x[:37], start_sample=0),
            imp.apply(x[37:], start_sample=37),
        ])
        assert np.allclose(parts, whole)

    def test_empty_chunk(self):
        assert TYPICAL_N210.apply(np.zeros(0, dtype=complex)).size == 0


class TestDdcIntegration:
    def test_ddc_applies_impairments(self, rng):
        imp = FrontEndImpairments(dc_offset=0.1)
        ddc = DigitalDownConverter(impairments=imp)
        x = 0.01 * (rng.standard_normal(10_000)
                    + 1j * rng.standard_normal(10_000))
        out = ddc.process(x)
        assert np.mean(out.real) == pytest.approx(0.1, abs=0.01)

    def test_ddc_cfo_continuity(self):
        imp = FrontEndImpairments(cfo_hz=100e3)
        ddc_a = DigitalDownConverter(impairments=imp)
        ddc_b = DigitalDownConverter(impairments=imp)
        x = 0.1 * np.ones(200, dtype=complex)
        whole = ddc_a.process(x)
        parts = np.concatenate([ddc_b.process(x[:77]),
                                ddc_b.process(x[77:])])
        assert np.allclose(parts, whole)

    def test_reset_rewinds_cfo_clock(self):
        imp = FrontEndImpairments(cfo_hz=100e3)
        ddc = DigitalDownConverter(impairments=imp)
        x = 0.1 * np.ones(64, dtype=complex)
        first = ddc.process(x)
        ddc.reset()
        again = ddc.process(x)
        assert np.allclose(first, again)

    def test_sign_correlator_survives_typical_impairments(self, rng):
        # The detection pipeline keeps working through a typical
        # front end (the ablation bench quantifies the margin).
        from repro.hw.cross_correlator import (
            CrossCorrelator,
            quantize_coefficients,
        )

        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        ci, cq = quantize_coefficients(template)
        corr = CrossCorrelator(ci, cq, threshold=25_000)
        block = 0.01 * (rng.standard_normal(500)
                        + 1j * rng.standard_normal(500))
        block[200:264] += 0.3 * template
        impaired = TYPICAL_N210.apply(block)
        assert corr.detect(impaired).any()
