"""Fixed-point quantization matching the FPGA data path.

The USRP N210 carries baseband I/Q as 16-bit signed integers.  The
paper's cross-correlator further reduces each sample to its sign bit and
stores coefficients as 3-bit signed values.  This module provides a
small Q-format abstraction so every block states its word width
explicitly instead of sprinkling ``np.clip`` calls around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, StreamError


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format with ``total_bits`` including sign.

    ``fractional_bits`` positions the binary point: a float ``x`` is
    represented as the integer ``round(x * 2**fractional_bits)``,
    saturated to the representable range.

    Attributes:
        total_bits: Total word width, including the sign bit.
        fractional_bits: Number of fractional bits (may be 0).
    """

    total_bits: int
    fractional_bits: int = 0

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise ConfigurationError("total_bits must be >= 1")
        if self.fractional_bits < 0:
            raise ConfigurationError("fractional_bits must be >= 0")
        if self.fractional_bits >= self.total_bits:
            raise ConfigurationError(
                "fractional_bits must leave at least the sign bit: "
                f"got {self.fractional_bits} of {self.total_bits}"
            )

    @property
    def max_int(self) -> int:
        """Largest representable integer value."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_int(self) -> int:
        """Smallest (most negative) representable integer value."""
        return -(1 << (self.total_bits - 1))

    @property
    def scale(self) -> int:
        """Integer units per 1.0 of real value."""
        return 1 << self.fractional_bits

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_int / self.scale

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_int / self.scale

    def to_int(self, values: np.ndarray) -> np.ndarray:
        """Quantize real ``values`` to integers with saturation."""
        scaled = np.round(np.asarray(values, dtype=np.float64) * self.scale)
        return np.clip(scaled, self.min_int, self.max_int).astype(np.int64)

    def to_float(self, ints: np.ndarray) -> np.ndarray:
        """Convert stored integers back to real values."""
        return np.asarray(ints, dtype=np.float64) / self.scale


#: The N210 RX/TX sample format: 16-bit signed, full-scale at +-1.0.
IQ16 = FixedPointFormat(total_bits=16, fractional_bits=15)

#: The cross-correlator coefficient format from the WARP reference core.
COEFF3 = FixedPointFormat(total_bits=3, fractional_bits=0)

#: IQ16's scale, its inverse and its integer range as floats.
_IQ16_SCALE = float(IQ16.scale)
_IQ16_INV_SCALE = 1.0 / IQ16.scale
_IQ16_MIN = float(IQ16.min_int)
_IQ16_MAX = float(IQ16.max_int)


def quantize(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Round-trip ``values`` through ``fmt`` (quantize, then re-scale).

    Complex inputs are quantized component-wise, mirroring independent
    I and Q hardware paths.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        real = fmt.to_float(fmt.to_int(values.real))
        imag = fmt.to_float(fmt.to_int(values.imag))
        return real + 1j * imag
    return fmt.to_float(fmt.to_int(values))


def quantize_iq16(values: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Quantize complex baseband to the N210's 16-bit I/Q format.

    Byte-identical to ``quantize(values, IQ16)`` for every finite
    input, but computed in place in the one complex128 output: scale,
    round, saturate and re-scale run on its interleaved float64 view.
    The scale is a power of two, so both multiplies are exact, and
    adding +0.0 turns a rounded -0.0 into +0.0 as the integer round
    trip of :func:`quantize` does.  +-inf saturate to full scale.

    ``out``, a C-contiguous complex128 array of the values' shape that
    does not overlap them, receives the codes when given and is
    returned; without it the codes are new storage.  The USRP model
    passes its reused baseband buffer, so a steady chunk loop
    allocates nothing chunk-sized; what a later chunk must still see
    (a correlator tail, the replay capture) its block copies.

    Raises:
        StreamError: if any component is NaN; such a sample has no
            16-bit code, and passed on it would poison the energy
            detector's carried sums for every later chunk, or if
            ``out`` does not fit.
    """
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    elif (out.shape != values.shape or out.dtype != np.complex128
          or not out.flags.c_contiguous):
        raise StreamError(
            f"out must be a C-contiguous complex128 array of shape "
            f"{values.shape}")
    flat = out.reshape(-1).view(np.float64)
    if values.dtype == np.complex128 and values.flags.c_contiguous:
        np.multiply(values.reshape(-1).view(np.float64), _IQ16_SCALE,
                    out=flat)
    else:
        out[...] = values
        flat *= _IQ16_SCALE
    np.rint(flat, out=flat)
    # Saturate in place: the ops of np.clip, for NaN, +-inf and -0.0.
    np.maximum(flat, _IQ16_MIN, out=flat)
    np.minimum(flat, _IQ16_MAX, out=flat)
    flat += 0.0
    # NaN is the only value rint and the saturation pass through
    # unbounded, so one sum over the saturated buffer detects it (only
    # NaN is unequal to itself).
    total = np.add.reduce(flat)
    if total != total:
        raise StreamError("NaN sample reached the IQ16 quantizer")
    flat *= _IQ16_INV_SCALE
    return out


def sign_bits(values: np.ndarray) -> np.ndarray:
    """Extract the sign bit of each real value as +-1 integers.

    The hardware slices the MSB of each 16-bit sample; a cleared MSB
    (value >= 0) maps to +1 and a set MSB (value < 0) maps to -1.  Zero
    therefore maps to +1, exactly as two's-complement hardware behaves.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise TypeError("sign_bits takes real input; use sign_bits_iq for complex")
    return np.where(values < 0, -1, 1).astype(np.int8)


def sign_bits_iq(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign bits of I and Q components as two +-1 ``int8`` arrays."""
    values = np.asarray(values)
    i = np.where(np.real(values) < 0, -1, 1).astype(np.int8)
    q = np.where(np.imag(values) < 0, -1, 1).astype(np.int8)
    return i, q
