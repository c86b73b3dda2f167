"""Additive white Gaussian noise with calibrated power.

The detection experiments sweep received SNR exactly as the paper
does: the noise floor is fixed and the transmit amplitude is scaled,
with SNR measured independently at the receiver.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ConfigurationError


def awgn(n_samples: int, power: float, rng: np.random.Generator,
         out: np.ndarray | None = None) -> np.ndarray:
    """Complex white Gaussian noise of the given mean power.

    ``out`` (a length-``n_samples`` complex128 array) lets hot loops
    synthesize noise in place.  The RNG draw order and the produced
    values are identical with or without it: the real draws come
    first, then the imaginary draws, each scaled by ``sqrt(power/2)``.
    Both halves come from one ``standard_normal(2 * n_samples)`` call,
    which draws exactly what two ``n_samples`` calls would.
    """
    if n_samples < 0:
        raise ConfigurationError("n_samples must be non-negative")
    if power < 0:
        raise ConfigurationError("noise power must be non-negative")
    if out is None:
        out = np.empty(n_samples, dtype=np.complex128)
    elif out.shape != (n_samples,) or out.dtype != np.complex128:
        raise ConfigurationError(
            "awgn out must be a length-n_samples complex128 array"
        )
    if power == 0.0:
        out[:] = 0.0
        return out
    draws = rng.standard_normal(2 * n_samples)
    draws *= np.sqrt(power / 2.0)
    out.real = draws[:n_samples]
    out.imag = draws[n_samples:]
    return out


class AwgnChannel:
    """A reproducible AWGN source with a fixed noise floor.

    Attributes:
        noise_power: Mean noise power in linear units (the "floor"
            against which experiment SNRs are defined).
    """

    def __init__(self, noise_power: float = 1.0, seed: int = 0) -> None:
        if noise_power <= 0:
            raise ConfigurationError("noise_power must be positive")
        self.noise_power = float(noise_power)
        self._rng = np.random.default_rng(seed)

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Add noise at the configured floor to ``signal``."""
        signal = np.asarray(signal, dtype=np.complex128)
        return signal + awgn(signal.size, self.noise_power, self._rng)

    def transmit_at_snr(self, signal: np.ndarray, snr_db: float) -> np.ndarray:
        """Scale ``signal`` to the target SNR and add the noise floor."""
        scaled = units.snr_scale(signal, snr_db, noise_power=self.noise_power)
        return self.apply(scaled)

    def noise_only(self, n_samples: int) -> np.ndarray:
        """A noise-only segment (e.g. the 50-ohm-terminated receiver)."""
        return awgn(n_samples, self.noise_power, self._rng)
