"""Offline generation of cross-correlator templates (paper §2.3).

"These coefficients are generated offline on the host based on
knowledge of the wireless standards' preambles or inferred from the
low-entropy portions of the samples of incoming signals."

All templates are 64 complex samples **at the jammer's 25 MSPS data
path rate**.  For WiFi this bakes in the paper's central impairment:
the standard's preambles live at 20 MSPS, so the 64-sample window at
25 MSPS covers only the first 2.56 us of the 3.2 us long-preamble
code.  For WiMAX the 25 us preamble code dwarfs the window entirely.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.dsp.measure import sliding_energy
from repro.dsp.resample import resample
from repro.errors import ConfigurationError
from repro.hw.register_map import CORRELATOR_LENGTH
from repro.phy.wifi.params import WIFI_SAMPLE_RATE
from repro.phy.wifi.preamble import long_training_symbol, short_preamble
from repro.phy.wimax.params import WIMAX_SAMPLE_RATE
from repro.phy.wimax.preamble import preamble_symbol
from repro.runtime.cache import cached_artifact


def _window64(samples: np.ndarray, offset: int = 0) -> np.ndarray:
    if samples.size < offset + CORRELATOR_LENGTH:
        raise ConfigurationError(
            f"waveform too short for a {CORRELATOR_LENGTH}-sample template"
        )
    return samples[offset:offset + CORRELATOR_LENGTH].copy()


@cached_artifact
def wifi_long_preamble_template(resampled: bool = True) -> np.ndarray:
    """The 64-coefficient template for the WiFi long training symbol.

    With ``resampled=True`` (default) the 20 MSPS code is converted
    to the correlator's 25 MSPS and truncated to its first 64 samples,
    realizing the paper's "orthogonal code that is 3.2 us long is
    being correlated across its first 2.56 us".

    ``resampled=False`` is the ablation bracketing the paper's analog
    reality from below: the native-rate samples loaded verbatim, so
    the coefficient spacing drifts against the signal by 20 % per
    sample and the correlation collapses — the full-strength version
    of the "sampling rate mismatch between the correlator and the RF
    signal" the paper blames for its reduced detection rates.
    """
    lts = long_training_symbol()
    if not resampled:
        return lts.copy()
    at_25 = resample(lts, WIFI_SAMPLE_RATE, units.BASEBAND_RATE)
    return _window64(at_25)


@cached_artifact
def wifi_short_preamble_template(resampled: bool = True) -> np.ndarray:
    """The 64-coefficient template for the WiFi short training field.

    With ``resampled=True`` (default) the first 64 samples of the STF
    at 25 MSPS — 3.2 repetitions of the 0.8 us code.  Because the code
    is short and cyclically repeated ten times per frame, alignments
    against the stream recur throughout the STF, which is why
    short-preamble detection is so much stronger (paper Fig. 7 vs
    Fig. 6).  ``resampled=False`` tiles the native-rate 16-sample code
    four times (the degraded ablation).
    """
    stf = short_preamble()
    if not resampled:
        return stf[:64].copy()
    at_25 = resample(stf, WIFI_SAMPLE_RATE, units.BASEBAND_RATE)
    return _window64(at_25)


@cached_artifact
def wimax_preamble_template(cell_id: int = 1, segment: int = 0,
                            resampled: bool = True) -> np.ndarray:
    """64 samples of the 802.16e downlink preamble.

    The default follows the paper's description for WiMAX: "the 25 us
    orthogonal code in the preamble is being correlated across its
    first 2.56 us" — the code resampled to the jammer's 25 MSPS with
    only the first 64 samples (after the cyclic prefix) retained.  The
    window covers ~10 % of the code, the source of the ~2/3
    misdetection rate in paper §5.  ``resampled=False`` loads the
    native 11.4 MHz samples instead (a further-degraded ablation).
    """
    symbol = preamble_symbol(cell_id=cell_id, segment=segment)
    if not resampled:
        return _window64(symbol, offset=128)
    at_25 = resample(symbol, WIMAX_SAMPLE_RATE, units.BASEBAND_RATE)
    cp_at_25 = int(round(128 * units.BASEBAND_RATE / WIMAX_SAMPLE_RATE))
    return _window64(at_25, offset=cp_at_25)


@cached_artifact
def dsss_preamble_template() -> np.ndarray:
    """64 samples of the 802.11b long DSSS preamble, at 25 MSPS.

    One DBPSK SYNC bit is 11 Barker chips = 1 us = 25 samples at the
    jammer's rate, so the window spans ~2.5 bits of the scrambled SYNC
    field; the 144 us preamble provides dozens of recurrences.
    """
    from repro.phy.wifi.dsss import DSSS_SAMPLE_RATE, long_preamble_waveform

    preamble = long_preamble_waveform()
    at_25 = resample(preamble, DSSS_SAMPLE_RATE, units.BASEBAND_RATE)
    return _window64(at_25)


@cached_artifact
def zigbee_preamble_template() -> np.ndarray:
    """64 samples of the 802.15.4 preamble, at 25 MSPS.

    The preamble repeats the symbol-0 chip sequence (32 chips = 16 us)
    eight times, so the 2.56 us window covers ~5 chips of a code that
    recurs throughout the 128 us preamble — ample correlation
    opportunities, which is why low-rate reactive jamming (Wilhelm et
    al., the paper's baseline) is the easy case.
    """
    from repro.phy.zigbee.frame import preamble_waveform
    from repro.phy.zigbee.params import ZIGBEE_SAMPLE_RATE

    preamble = preamble_waveform()
    at_25 = resample(preamble, ZIGBEE_SAMPLE_RATE, units.BASEBAND_RATE)
    return _window64(at_25)


def infer_template_from_capture(capture: np.ndarray,
                                min_energy_fraction: float = 0.5) -> np.ndarray:
    """Infer a 64-sample template from a captured signal.

    Implements the paper's fallback when no standard preamble is known:
    find the most *self-similar* (low-entropy) 64-sample window — the
    one whose lag-autocorrelation against the rest of the capture is
    strongest — restricted to windows carrying appreciable energy.
    """
    capture = np.asarray(capture, dtype=np.complex128)
    if capture.size < 2 * CORRELATOR_LENGTH:
        raise ConfigurationError(
            "need at least 128 samples to infer a template"
        )
    window = CORRELATOR_LENGTH
    energies = sliding_energy(capture, window)[window - 1:]
    floor = float(np.max(energies)) * min_energy_fraction
    best_score = -1.0
    best_start = 0
    # Score each candidate window by its correlation with the window
    # one code-length later (periodic preambles repeat themselves).
    for start in range(0, capture.size - 2 * window + 1):
        if energies[start] < floor:
            continue
        a = capture[start:start + window]
        b = capture[start + window:start + 2 * window]
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        if denom == 0:
            continue
        score = float(np.abs(np.vdot(a, b)) / denom)
        if score > best_score:
            best_score = score
            best_start = start
    if best_score < 0:
        raise ConfigurationError("no energetic window found in the capture")
    return capture[best_start:best_start + window].copy()
