"""Tests for the shared-medium model: CCA, backoff walk, reception."""

from __future__ import annotations

import pytest

from repro.mac.frames import FrameKind, MacFrame
from repro.mac.medium import (
    AGC_CAPTURE_SIR_DB,
    Medium,
    SYNC_LOSS_SIR_DB,
)
from repro.phy.wifi.params import WifiRate

#: Simple symmetric path-loss table for tests.
LOSSES = {
    ("a", "b"): -50.0, ("b", "a"): -50.0,
    ("a", "j"): -40.0, ("j", "a"): -40.0,
    ("b", "j"): -40.0, ("j", "b"): -40.0,
    ("a", "iso"): None, ("iso", "a"): None,
}


def path_loss(src: str, dst: str) -> float | None:
    return LOSSES.get((src, dst))


def data_frame(rate=WifiRate.MBPS_54, psdu=1534) -> MacFrame:
    return MacFrame(FrameKind.DATA, "b", "a", psdu, rate)


@pytest.fixture
def medium() -> Medium:
    return Medium(path_loss, noise_floor_dbm=-95.0)


class TestPowerBookkeeping:
    def test_rx_power(self, medium):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=20.0)
        assert medium.rx_power_dbm(e, "a") == pytest.approx(-30.0)

    def test_isolated_pair(self, medium):
        e = medium.emit_frame("iso", data_frame(), 0.0, tx_power_dbm=20.0)
        assert medium.rx_power_dbm(e, "a") is None

    def test_own_emission_not_heard(self, medium):
        e = medium.emit_frame("a", data_frame(), 0.0, tx_power_dbm=20.0)
        assert medium.rx_power_dbm(e, "a") is None


class TestCarrierSense:
    def test_frame_above_preamble_threshold_is_busy(self, medium):
        medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=0.0)
        # -50 dBm at "a" > -82 dBm threshold.
        assert medium.is_busy("a", 1e-4)

    def test_weak_frame_not_busy(self, medium):
        medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=-40.0)
        # -90 dBm < -82 dBm.
        assert not medium.is_busy("a", 1e-4)

    def test_jam_uses_energy_detect_threshold(self, medium):
        # At -70 dBm a frame would be busy but WGN is not (-62 ED).
        medium.emit_jam("j", 0.0, 1e-3, tx_power_dbm=-30.0)
        assert not medium.is_busy("a", 1e-4)
        medium.emit_jam("j", 0.0, 1e-3, tx_power_dbm=-20.0)
        assert medium.is_busy("a", 1e-4)

    def test_busy_intervals_merge(self, medium):
        medium.emit_jam("j", 1e-3, 1e-3, tx_power_dbm=0.0)
        medium.emit_jam("j", 1.5e-3, 1e-3, tx_power_dbm=0.0)
        intervals = medium.busy_intervals("a", 0.0)
        assert len(intervals) == 1
        assert intervals[0] == pytest.approx((1e-3, 2.5e-3))


class TestBackoffWalk:
    DIFS = 28e-6
    SLOT = 9e-6

    def test_idle_medium(self, medium):
        finish = medium.backoff_finish_time("a", 0.0, 5, self.DIFS, self.SLOT)
        assert finish == pytest.approx(self.DIFS + 5 * self.SLOT)

    def test_waits_for_busy_end(self, medium):
        medium.emit_jam("j", 0.0, 1e-3, tx_power_dbm=0.0)
        finish = medium.backoff_finish_time("a", 0.0, 2, self.DIFS, self.SLOT)
        assert finish == pytest.approx(1e-3 + self.DIFS + 2 * self.SLOT)

    def test_freezes_and_resumes(self, medium):
        # Busy interval interrupts the countdown after ~3 slots.
        gap_start = self.DIFS + 3.5 * self.SLOT
        medium.emit_jam("j", gap_start, 1e-4, tx_power_dbm=0.0)
        finish = medium.backoff_finish_time("a", 0.0, 10, self.DIFS, self.SLOT)
        # 3 whole slots consumed before the burst, 7 remain after it.
        expected = gap_start + 1e-4 + self.DIFS + 7 * self.SLOT
        assert finish == pytest.approx(expected)

    def test_zero_slots_needs_only_difs(self, medium):
        finish = medium.backoff_finish_time("a", 0.0, 0, self.DIFS, self.SLOT)
        assert finish == pytest.approx(self.DIFS)


class TestReception:
    def test_clean_frame_succeeds(self, medium, rng):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        assert medium.frame_success_probability(e, "a") > 0.99

    def test_below_sensitivity_fails(self, medium):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=-35.0)
        assert medium.frame_success_probability(e, "a") == 0.0

    def test_strong_jam_during_data_kills_frame(self, medium):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        # Burst inside the DATA region, jammer within the AGC margin.
        medium.emit_jam("j", 50e-6, 100e-6,
                        tx_power_dbm=14.0 - 50.0 + 40.0 - AGC_CAPTURE_SIR_DB + 1)
        assert medium.frame_success_probability(e, "a") == 0.0

    def test_weak_jam_during_data_tolerated(self, medium):
        e = medium.emit_frame("b", data_frame(rate=WifiRate.MBPS_6), 0.0,
                              tx_power_dbm=14.0)
        # Jammer 30 dB below the signal at the receiver.
        medium.emit_jam("j", 50e-6, 100e-6, tx_power_dbm=14.0 - 50 + 40 - 30)
        assert medium.frame_success_probability(e, "a") > 0.9

    def test_preamble_burst_kills_sync_below_margin(self, medium):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        # Burst covering the whole LTF, jammer stronger than SIR margin.
        medium.emit_jam("j", 6e-6, 10e-6,
                        tx_power_dbm=14.0 - 50 + 40 - SYNC_LOSS_SIR_DB + 1)
        assert medium.frame_success_probability(e, "a") == 0.0

    def test_preamble_burst_survived_above_margin(self, medium):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        medium.emit_jam("j", 6e-6, 10e-6,
                        tx_power_dbm=14.0 - 50 + 40 - 25.0)
        assert medium.frame_success_probability(e, "a") > 0.5

    def test_overlapping_frames_collide(self, medium):
        e1 = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        medium.emit_frame("j", data_frame(), 50e-6, tx_power_dbm=14.0)
        assert medium.frame_success_probability(e1, "a") == 0.0

    def test_capture_effect(self, medium):
        e1 = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        # Much weaker overlapping frame: capture wins.
        medium.emit_frame("j", data_frame(), 50e-6, tx_power_dbm=-20.0)
        assert medium.frame_success_probability(e1, "a") > 0.9

    def test_receive_frame_bernoulli(self, medium, rng):
        e = medium.emit_frame("b", data_frame(), 0.0, tx_power_dbm=14.0)
        assert medium.receive_frame(e, "a", rng)


class TestPruning:
    def test_prune_drops_old(self, medium):
        medium.emit_jam("j", 0.0, 1e-3, tx_power_dbm=0.0)
        medium.prune(before=1.0)
        assert not medium.is_busy("a", 5e-4)

    def test_prune_keeps_active(self, medium):
        medium.emit_jam("j", 0.0, 10.0, tx_power_dbm=0.0)
        medium.prune(before=1.0)
        assert medium.is_busy("a", 5.0)
