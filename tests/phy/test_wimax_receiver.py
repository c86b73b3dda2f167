"""Tests for the WiMAX cell searcher."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import DecodeError
from repro.phy.wimax.frame import downlink_stream
from repro.phy.wimax.params import WimaxConfig
from repro.phy.wimax.receiver import WimaxCellSearcher


def capture_for(cell_id: int, segment: int, rng, n_frames: int = 1,
                snr_db: float = 15.0, lead: int = 500) -> np.ndarray:
    config = WimaxConfig(cell_id=cell_id, segment=segment)
    stream = downlink_stream(config, n_frames, rng)
    noise_power = 10 ** (-snr_db / 10)
    capture = np.concatenate([
        awgn(lead, noise_power, rng),
        stream + awgn(stream.size, noise_power, rng),
    ])
    return capture


class TestCellSearch:
    @pytest.mark.parametrize("cell_id,segment", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_identifies_cell_and_segment(self, rng, cell_id, segment):
        capture = capture_for(cell_id, segment, rng)
        result = WimaxCellSearcher().search(capture)
        assert result.cell_id == cell_id
        assert result.segment == segment

    def test_frame_start_located(self, rng):
        capture = capture_for(1, 0, rng, lead=777)
        result = WimaxCellSearcher().search(capture)
        assert result.frame_start == pytest.approx(777, abs=4)

    def test_noise_only_raises(self, rng):
        noise = awgn(20_000, 1.0, rng)
        with pytest.raises(DecodeError):
            WimaxCellSearcher().search(noise)

    def test_short_capture_raises(self, rng):
        with pytest.raises(DecodeError):
            WimaxCellSearcher().search(np.zeros(100, dtype=complex))

    def test_works_at_low_snr(self, rng):
        capture = capture_for(1, 0, rng, snr_db=0.0)
        result = WimaxCellSearcher().search(capture)
        assert (result.cell_id, result.segment) == (1, 0)

    def test_restricted_bank(self, rng):
        capture = capture_for(1, 0, rng)
        searcher = WimaxCellSearcher(cell_ids=[1], segments=[0])
        result = searcher.search(capture)
        assert (result.cell_id, result.segment) == (1, 0)


class TestFrameTracking:
    def test_tracks_successive_frames(self, rng):
        capture = capture_for(1, 0, rng, n_frames=4, lead=300)
        starts = WimaxCellSearcher().track_frames(capture)
        assert len(starts) == 4
        frame_len = WimaxConfig().frame_samples
        gaps = np.diff(starts)
        assert np.all(np.abs(gaps - frame_len) <= 4)

    def test_single_frame_tracks_once(self, rng):
        capture = capture_for(1, 0, rng, n_frames=1)
        starts = WimaxCellSearcher().track_frames(capture)
        assert len(starts) == 1
