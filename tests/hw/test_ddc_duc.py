"""Tests for the DDC and DUC chain models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.fixed_point import IQ16
from repro.errors import StreamError
from repro.hw.ddc import DigitalDownConverter
from repro.hw.duc import DigitalUpConverter
from repro.hw.impairments import TYPICAL_N210


class TestDdc:
    def test_unity_gain_quantizes_only(self, rng):
        ddc = DigitalDownConverter(rx_gain_db=0.0)
        x = 0.2 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        x = np.clip(x.real, -0.99, 0.99) + 1j * np.clip(x.imag, -0.99, 0.99)
        out = ddc.process(x)
        assert np.max(np.abs(out - x)) < 1 / 32768

    def test_gain_applied_before_quantization(self):
        ddc = DigitalDownConverter(rx_gain_db=20.0)
        x = np.full(16, 0.01 + 0j)
        out = ddc.process(x)
        assert np.allclose(out.real, 0.1, atol=1e-4)

    def test_saturation_at_full_scale(self):
        ddc = DigitalDownConverter(rx_gain_db=40.0)
        x = np.full(16, 0.5 + 0.5j)
        out = ddc.process(x)
        assert np.all(out.real <= 1.0)
        assert np.all(out.imag <= 1.0)

    def test_filtered_variant_runs(self, rng):
        ddc = DigitalDownConverter(rx_gain_db=0.0, use_filter=True)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        out = ddc.process(x)
        assert out.size == 512
        ddc.reset()

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            DigitalDownConverter().process(np.zeros((2, 2)))

    def test_skip_resumes_the_cfo_phase(self, rng):
        x = 0.3 * (rng.standard_normal(3000) + 1j * rng.standard_normal(3000))
        chunks = [x[:1000], x[1000:1700], x[1700:]]
        whole = DigitalDownConverter(impairments=TYPICAL_N210)
        expected = [whole.process(chunk) for chunk in chunks]
        gapped = DigitalDownConverter(impairments=TYPICAL_N210)
        gapped.process(chunks[0])
        gapped.skip(chunks[1].size)
        assert gapped.process(chunks[2]).tobytes() == expected[2].tobytes()

    def test_rejected_chunk_leaves_the_clock_for_skip(self, rng):
        x = 0.3 * (rng.standard_normal(600) + 1j * rng.standard_normal(600))
        whole = DigitalDownConverter(impairments=TYPICAL_N210)
        whole.process(x[:200])
        whole.process(x[200:400])
        expected = whole.process(x[400:])
        gapped = DigitalDownConverter(impairments=TYPICAL_N210)
        gapped.process(x[:200])
        bad = x[200:400].copy()
        bad[17] = complex(np.nan, 0.0)
        with pytest.raises(StreamError):
            gapped.process(bad)
        gapped.skip(bad.size)
        assert gapped.process(x[400:]).tobytes() == expected.tobytes()

    def test_skip_rejects_negative(self):
        with pytest.raises(StreamError):
            DigitalDownConverter().skip(-1)

    def test_infinite_sample_saturates_at_unity_gain(self):
        x = np.zeros(4, dtype=np.complex128)
        x.real[1] = np.inf
        x.imag[2] = -np.inf
        out = DigitalDownConverter().process(x)
        assert out[1] == IQ16.max_value
        assert out[2] == complex(0.0, IQ16.min_value)


class TestDuc:
    def test_unity_gain(self, rng):
        duc = DigitalUpConverter(tx_gain_db=0.0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert duc.process(x).tobytes() == x.tobytes()

    def test_does_not_clip(self):
        duc = DigitalUpConverter(tx_gain_db=20.0)
        assert np.allclose(duc.process(np.full(4, 0.5 + 0j)), 5.0)

    def test_attenuation(self):
        duc = DigitalUpConverter(tx_gain_db=-20.0)
        x = np.ones(8, dtype=complex)
        assert np.allclose(duc.process(x), 0.1)

    def test_gain(self):
        duc = DigitalUpConverter(tx_gain_db=6.0)
        x = np.ones(8, dtype=complex)
        assert np.allclose(np.abs(duc.process(x)), 10 ** 0.3)

    def test_rejects_2d(self):
        with pytest.raises(StreamError):
            DigitalUpConverter().process(np.zeros((2, 2)))
