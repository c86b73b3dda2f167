"""Tests for repro.dsp.fixed_point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.fixed_point import (
    COEFF3,
    IQ16,
    FixedPointFormat,
    quantize,
    quantize_iq16,
    sign_bits,
    sign_bits_iq,
)
from repro.errors import ConfigurationError, StreamError

#: Values where rounding and saturation are decided: signed zeros,
#: exact half-LSB ties (k + 0.5 codes), full scale on both sides and
#: just past it, and the infinities.
_LSB = 1 / 32768
_EDGES = [0.0, -0.0, 0.5 * _LSB, -0.5 * _LSB, 1.5 * _LSB, -1.5 * _LSB,
          2.5 * _LSB, -2.5 * _LSB, 32766.5 * _LSB, -32767.5 * _LSB,
          32767 * _LSB, -1.0, 1.0, 32767.5 * _LSB, -32768.5 * _LSB,
          float("inf"), float("-inf")]
_components = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=False, allow_infinity=True),
    st.floats(-1.5, 1.5, allow_nan=False),
    st.integers(-70_000, 70_000).map(lambda k: k * 0.5 * _LSB),
)


def _complex(real: list[float], imag: list[float]) -> np.ndarray:
    # Set the parts directly: real + 1j * imag would turn an infinite
    # part into NaN (inf * 0) in the other component.
    values = np.empty(len(real), dtype=np.complex128)
    values.real = real
    values.imag = imag
    return values


class TestFixedPointFormat:
    def test_iq16_range(self):
        assert IQ16.max_int == 32767
        assert IQ16.min_int == -32768
        assert IQ16.max_value == pytest.approx(32767 / 32768)
        assert IQ16.min_value == -1.0

    def test_coeff3_range(self):
        assert COEFF3.max_int == 3
        assert COEFF3.min_int == -4
        assert COEFF3.scale == 1

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=0)

    def test_rejects_negative_fractional(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=8, fractional_bits=-1)

    def test_rejects_all_fractional(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(total_bits=8, fractional_bits=8)

    def test_to_int_saturates_high(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        assert fmt.to_int(np.array([1000.0]))[0] == fmt.max_int

    def test_to_int_saturates_low(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        assert fmt.to_int(np.array([-1000.0]))[0] == fmt.min_int

    def test_roundtrip_within_range(self):
        fmt = FixedPointFormat(total_bits=12, fractional_bits=6)
        values = np.array([0.0, 0.5, -0.5, 1.25, -2.0])
        back = fmt.to_float(fmt.to_int(values))
        assert np.allclose(back, values)

    def test_quantization_step(self):
        fmt = FixedPointFormat(total_bits=8, fractional_bits=4)
        # step is 1/16; 0.06 rounds to 1/16
        assert fmt.to_float(fmt.to_int(np.array([0.06])))[0] == pytest.approx(1 / 16)


class TestQuantize:
    def test_real_passthrough_of_exact_values(self):
        fmt = FixedPointFormat(total_bits=16, fractional_bits=8)
        values = np.array([1.0, -0.5, 0.25])
        assert np.allclose(quantize(values, fmt), values)

    def test_complex_componentwise(self):
        values = np.array([0.3 + 0.7j, -0.2 - 0.9j])
        out = quantize(values, IQ16)
        assert np.allclose(out.real, quantize(values.real, IQ16))
        assert np.allclose(out.imag, quantize(values.imag, IQ16))

    def test_iq16_clips_at_full_scale(self):
        out = quantize_iq16(np.array([2.0 + 3.0j]))
        assert out[0].real == pytest.approx(32767 / 32768)
        assert out[0].imag == pytest.approx(32767 / 32768)

    def test_iq16_error_bound(self, rng):
        values = rng.uniform(-0.9, 0.9, 500) + 1j * rng.uniform(-0.9, 0.9, 500)
        out = quantize_iq16(values)
        step = 1 / 32768
        assert np.max(np.abs(out.real - values.real)) <= step / 2 + 1e-12
        assert np.max(np.abs(out.imag - values.imag)) <= step / 2 + 1e-12


class TestQuantizeIq16InPlace:
    """The in-place quantizer against the integer round-trip reference."""

    @given(st.lists(st.tuples(_components, _components), max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_byte_equal_to_reference(self, pairs):
        values = _complex([re for re, _ in pairs], [im for _, im in pairs])
        given = np.full(values.shape, 7.0 + 7.0j)
        with np.errstate(over="ignore"):
            reference = quantize(values, IQ16)
            out = quantize_iq16(values)
            into = quantize_iq16(values, out=given)
        assert out.dtype == np.complex128
        assert out.tobytes() == reference.tobytes()
        assert into is given
        assert given.tobytes() == reference.tobytes()

    def test_every_edge_pair_matches(self):
        real, imag = np.meshgrid(_EDGES, _EDGES)
        values = _complex(real.ravel().tolist(), imag.ravel().tolist())
        assert quantize_iq16(values).tobytes() == \
            quantize(values, IQ16).tobytes()

    def test_infinities_saturate(self):
        out = quantize_iq16(_complex([np.inf, -np.inf], [-np.inf, np.inf]))
        assert out.tolist() == [complex(IQ16.max_value, IQ16.min_value),
                                complex(IQ16.min_value, IQ16.max_value)]

    def test_strided_and_single_precision_inputs(self, rng):
        values = rng.uniform(-1.2, 1.2, 64) + 1j * rng.uniform(-1.2, 1.2, 64)
        for view in (values[::3], values.astype(np.complex64)):
            assert quantize_iq16(view).tobytes() == \
                quantize(view, IQ16).tobytes()

    @pytest.mark.parametrize("nan", [complex(np.nan, 0.1),
                                     complex(0.1, np.nan)])
    def test_nan_is_a_stream_error(self, nan):
        values = np.full(8, 0.25 + 0.25j)
        values[5] = nan
        with pytest.raises(StreamError, match="NaN"):
            quantize_iq16(values)

    @pytest.mark.parametrize("out", [
        np.empty(7, dtype=np.complex128),
        np.empty(8, dtype=np.complex64),
        np.empty(16, dtype=np.complex128)[::2],
    ])
    def test_an_out_that_does_not_fit_is_rejected(self, out):
        with pytest.raises(StreamError, match="out must be"):
            quantize_iq16(np.full(8, 0.25 + 0.25j), out=out)

    def test_input_is_not_modified(self, rng):
        values = rng.uniform(-2, 2, 32) + 1j * rng.uniform(-2, 2, 32)
        before = values.copy()
        quantize_iq16(values)
        assert values.tobytes() == before.tobytes()


class TestSignBits:
    def test_positive_maps_to_plus_one(self):
        assert sign_bits(np.array([0.5]))[0] == 1

    def test_negative_maps_to_minus_one(self):
        assert sign_bits(np.array([-0.5]))[0] == -1

    def test_zero_maps_to_plus_one_like_hardware(self):
        # MSB of +0 is clear in two's complement.
        assert sign_bits(np.array([0.0]))[0] == 1

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            sign_bits(np.array([1.0 + 1.0j]))

    def test_sign_bits_iq_components(self):
        values = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 0 + 0j])
        i, q = sign_bits_iq(values)
        assert list(i) == [1, -1, 1, -1, 1]
        assert list(q) == [1, 1, -1, -1, 1]

    def test_sign_bits_iq_dtype(self, rng):
        values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        i, q = sign_bits_iq(values)
        assert i.dtype == np.int8
        assert q.dtype == np.int8
        assert set(np.unique(i)) <= {-1, 1}
