"""Regression tests: parallelism and buffer reuse change nothing.

Two invariants guard the perf work in :mod:`repro.runtime`:

* a detection curve fanned out over ``workers=4`` is **byte-identical**
  (same floats, same ordering) to the serial ``workers=1`` reference —
  seeding depends only on grid position, never on scheduling;
* the chunked streaming path still matches single-shot processing for
  any chunk size after the scratch-buffer / preallocation rework.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.experiments.detection import (
    energy_detector_curve,
    long_preamble_curve,
)
from repro.hw.cross_correlator import CrossCorrelator, quantize_coefficients
from repro.hw.energy_differentiator import EnergyDifferentiator
from repro.hw.trigger import TriggerSource
from repro.hw.tx_controller import JamWaveform
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210

#: A small Fig. 6 grid: two SNR points spanning the curve's knee, with
#: enough frames per point to exercise multiple trial batches.
SNRS_DB = [-3.0, 1.0]
N_FRAMES = 60


class TestSweepByteIdentity:
    def test_fig6_parallel_matches_serial_exactly(self):
        serial = long_preamble_curve(SNRS_DB, n_frames=N_FRAMES,
                                     full_frames=False, workers=1)
        parallel = long_preamble_curve(SNRS_DB, n_frames=N_FRAMES,
                                       full_frames=False, workers=4)
        assert parallel == serial  # frozen dataclasses: exact floats

    def test_fig8_parallel_matches_serial_exactly(self):
        serial = energy_detector_curve(SNRS_DB, n_frames=N_FRAMES,
                                       workers=1)
        parallel = energy_detector_curve(SNRS_DB, n_frames=N_FRAMES,
                                         workers=3)
        assert parallel == serial

    def test_curves_are_reproducible_across_calls(self):
        first = long_preamble_curve(SNRS_DB, n_frames=N_FRAMES,
                                    full_frames=False, workers=2)
        second = long_preamble_curve(SNRS_DB, n_frames=N_FRAMES,
                                     full_frames=False, workers=2)
        assert first == second


def _rig(template: np.ndarray) -> UsrpN210:
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_template(template)
    driver.set_xcorr_threshold(30_000)
    driver.set_trigger_stages([TriggerSource.XCORR])
    driver.set_jam_waveform(JamWaveform.WGN)
    driver.set_jam_uptime(100)
    driver.set_control(jammer_enabled=True)
    return device


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_size", [1, 37, 64, 997, 10_000])
    def test_usrp_run_matches_single_shot(self, rng, chunk_size):
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        rx = awgn(5000, 1e-6, rng)
        rx[1000:1064] += template
        rx[3000:3064] += template
        reference = _rig(template).run(rx, chunk_size=rx.size)
        chunked = _rig(template).run(rx, chunk_size=chunk_size)
        assert np.array_equal(reference.tx, chunked.tx)
        assert [d.time for d in reference.detections] \
            == [d.time for d in chunked.detections]

    @pytest.mark.parametrize("chunk_size", [1, 33, 64, 500])
    def test_correlator_scratch_reuse_matches_single_shot(self, rng,
                                                          chunk_size):
        template = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        coeffs_i, coeffs_q = quantize_coefficients(template)
        signal = awgn(3000, 1.0, rng)
        whole = CrossCorrelator(coeffs_i, coeffs_q).metric(signal)
        streamed = CrossCorrelator(coeffs_i, coeffs_q)
        parts = [streamed.metric(signal[i:i + chunk_size])
                 for i in range(0, signal.size, chunk_size)]
        assert np.array_equal(whole, np.concatenate(parts, axis=1))

    @pytest.mark.parametrize("chunk_size", [1, 17, 32, 400])
    def test_energy_scratch_reuse_matches_single_shot(self, rng, chunk_size):
        signal = awgn(2000, 1.0, rng)
        signal[800:1200] *= 4.0
        whole = EnergyDifferentiator().detect(signal)
        streamed = EnergyDifferentiator()
        parts = [streamed.detect(signal[i:i + chunk_size])
                 for i in range(0, signal.size, chunk_size)]
        high = np.concatenate([p[0] for p in parts])
        low = np.concatenate([p[1] for p in parts])
        assert np.array_equal(whole[0], high)
        assert np.array_equal(whole[1], low)
