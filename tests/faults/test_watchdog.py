"""The in-fabric watchdog: duty guard, re-arm timeout, safe state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coeffs import wifi_short_preamble_template
from repro.core.detection import DetectionConfig
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import JammerPersonality
from repro.errors import ConfigurationError
from repro.hw import register_map as regmap
from repro.hw.trigger import TriggerSource
from repro.hw.usrp import UsrpN210
from repro.hw.watchdog import (
    TRIP_DUTY_CYCLE,
    TRIP_ILLEGAL_REGISTER,
    TRIP_REARM_TIMEOUT,
    Watchdog,
    WatchdogConfig,
)


class TestConfigValidation:
    def test_duty_cycle_bounds(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(max_duty_cycle=0.0)
        with pytest.raises(ConfigurationError):
            WatchdogConfig(max_duty_cycle=1.5)

    def test_window_positive(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(duty_window_samples=0)

    def test_timeout_non_negative(self):
        with pytest.raises(ConfigurationError):
            WatchdogConfig(rearm_timeout_samples=-1)


class TestDutyGuard:
    def _wd(self, max_duty=0.5, window=100):
        return Watchdog(WatchdogConfig(max_duty_cycle=max_duty,
                                       duty_window_samples=window))

    def test_admit_within_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert wd.duty_cycle(100) == 0.5
        assert wd.trips == []

    def test_veto_over_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert not wd.admit_interval(60, 80)
        trips = wd.trips_by_reason(TRIP_DUTY_CYCLE)
        assert len(trips) == 1
        assert trips[0].time == 60
        # The vetoed burst left no trace in the budget.
        assert wd.duty_cycle(100) == 0.5

    def test_sliding_window_frees_budget(self):
        wd = self._wd()
        assert wd.admit_interval(0, 50)
        assert not wd.admit_interval(60, 110)
        # A full window later the old span has aged out.
        assert wd.admit_interval(200, 250)

    def test_guard_disabled_at_full_duty(self):
        wd = self._wd(max_duty=1.0)
        for k in range(10):
            assert wd.admit_interval(k * 10, k * 10 + 10)
        assert wd.trips == []

    @pytest.mark.parametrize("max_duty", [0.5, 1.0])
    def test_kept_spans_are_bounded_by_the_window(self, max_duty):
        # Spans that aged out of the window are dropped whether or not
        # the guard is on, so a long run keeps a window's worth of them.
        wd = self._wd(max_duty=max_duty, window=1000)
        for k in range(5000):
            assert wd.admit_interval(k * 100, k * 100 + 10)
            wd.continuous_allowance(k * 100 + 50, 10)
        assert len(wd._spans) <= 2 * (1000 // 100 + 1)
        assert wd.duty_cycle(5000 * 100) == pytest.approx(0.2)

    def test_continuous_throttled_to_budget(self):
        wd = self._wd()
        allowed = wd.continuous_allowance(0, 80)
        assert allowed == 50
        assert wd.trips_by_reason(TRIP_DUTY_CYCLE)
        # The budget is spent for the rest of the window...
        assert wd.continuous_allowance(50, 40) == 0
        # ...and refills once the window slides past the spans.
        assert wd.continuous_allowance(200, 40) == 40

    def test_reset_clears_state(self):
        wd = self._wd()
        wd.admit_interval(0, 50)
        wd.admit_interval(60, 80)
        wd.reset()
        assert wd.trips == []
        assert wd.duty_cycle(100) == 0.0


class TestSafeState:
    def test_flag_and_clear(self):
        wd = Watchdog()
        assert not wd.safe_state
        wd.flag_illegal(21, time=5, detail="bad waveform")
        assert wd.safe_state
        assert wd.illegal_registers == {21: "bad waveform"}
        wd.clear_illegal(21)
        assert not wd.safe_state

    def test_trips_once_per_flagged_register(self):
        wd = Watchdog()
        wd.flag_illegal(21, time=5, detail="bad")
        wd.flag_illegal(21, time=9, detail="still bad")
        assert len(wd.trips_by_reason(TRIP_ILLEGAL_REGISTER)) == 1
        wd.clear_illegal(21)
        wd.flag_illegal(21, time=20, detail="bad again")
        assert len(wd.trips_by_reason(TRIP_ILLEGAL_REGISTER)) == 2


class _FakeFsm:
    def __init__(self, armed_since):
        self.armed_since = armed_since
        self.resets = 0

    def reset(self):
        self.resets += 1


class TestRearmTimeout:
    def test_disabled_by_default(self):
        wd = Watchdog()
        fsm = _FakeFsm(armed_since=0)
        assert not wd.check_rearm(fsm, now=10 ** 9)
        assert fsm.resets == 0

    def test_stale_fsm_is_reset(self):
        wd = Watchdog(WatchdogConfig(rearm_timeout_samples=1000))
        fsm = _FakeFsm(armed_since=100)
        assert not wd.check_rearm(fsm, now=1100)  # exactly at the limit
        assert wd.check_rearm(fsm, now=1101)
        assert fsm.resets == 1
        assert wd.trips_by_reason(TRIP_REARM_TIMEOUT)

    def test_idle_fsm_untouched(self):
        wd = Watchdog(WatchdogConfig(rearm_timeout_samples=10))
        fsm = _FakeFsm(armed_since=None)
        assert not wd.check_rearm(fsm, now=10 ** 6)
        assert fsm.resets == 0

    def test_trip_is_stamped_where_the_timeout_elapsed(self):
        wd = Watchdog(WatchdogConfig(rearm_timeout_samples=1000))
        assert wd.check_rearm(_FakeFsm(armed_since=100), now=5000)
        [trip] = wd.trips
        assert trip.time == 1101
        assert trip.detail == ("trigger FSM armed since sample 100 "
                               "re-armed after 1001 samples")


def _rearm_capture(n: int = 4500) -> np.ndarray:
    """Faint noise, then from sample 500 steady noise at the short
    preamble's power, with the preamble itself in [1637, 1701): an
    energy rise at 500 and a correlation at 1700, and nothing else
    that rises."""
    rng = np.random.default_rng(9)
    template = wifi_short_preamble_template()
    sigma = np.sqrt(np.mean(np.abs(template) ** 2) / 2)
    rx = 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rx[500:] = sigma * (rng.standard_normal(n - 500)
                        + 1j * rng.standard_normal(n - 500))
    rx[1637:1701] = template
    return rx


def _rearm_jammer(events: JammingEventBuilder,
                  watchdog: Watchdog | None) -> ReactiveJammer:
    jammer = ReactiveJammer(watchdog=watchdog)
    jammer.configure(
        DetectionConfig(template=wifi_short_preamble_template(),
                        xcorr_threshold=20_000),
        events, JammerPersonality(name="rearm", uptime_samples=100))
    return jammer


class TestRearmDeadline:
    """A two-stage sequence (energy rise, then correlation) under a
    corrupted 100,000-sample window: the rise at 500 arms the FSM and
    the correlation at 1700 would fire it.  A 1000-sample re-arm
    timeout elapses at 1501, so the arm is dropped there — at every
    chunk size, not at the first chunk start past it."""

    RX = _rearm_capture()

    def test_premise(self):
        single = _rearm_jammer(JammingEventBuilder().on_energy_rise(), None)
        report = single.run(self.RX, chunk_size=self.RX.size)
        assert [(d.time, d.source) for d in report.detections][:2] == [
            (500, TriggerSource.ENERGY_HIGH), (1700, TriggerSource.XCORR)]
        stale = _rearm_jammer(JammingEventBuilder().on_energy_rise()
                              .on_correlation().within_samples(100_000),
                              None)
        report = stale.run(self.RX, chunk_size=self.RX.size)
        assert [jam.trigger_time for jam in report.jams] == [1700]

    @pytest.mark.parametrize("chunk", [64, 256, 1000, 4000, RX.size])
    def test_timeout_applies_at_the_sample_it_elapses(self, chunk):
        jammer = _rearm_jammer(
            JammingEventBuilder().on_energy_rise().on_correlation()
            .within_samples(100_000),
            Watchdog(WatchdogConfig(rearm_timeout_samples=1000)))
        report = jammer.run(self.RX, chunk_size=chunk)
        assert report.jams == []
        assert [(trip.time, trip.reason)
                for trip in report.health.watchdog_trips] == [
            (1501, TRIP_REARM_TIMEOUT)]


class TestCoreIntegration:
    """Safe state entry/exit through the register decode path."""

    def _device(self):
        device = UsrpN210(watchdog=Watchdog())
        bus = device.bus
        bus.write(regmap.REG_CONTROL_FLAGS,
                  regmap.FLAG_JAMMER_ENABLE | regmap.FLAG_CONTINUOUS)
        return device, bus

    def test_illegal_waveform_suppresses_tx(self):
        device, bus = self._device()
        noise = np.zeros(256, dtype=np.complex128)
        assert np.any(device.process(noise).tx != 0)  # continuous TX on
        bus.write(regmap.REG_JAM_WAVEFORM, 3)  # undefined preset select
        assert device.core.watchdog.safe_state
        assert np.all(device.process(noise).tx == 0)
        trips = device.core.watchdog.trips_by_reason(TRIP_ILLEGAL_REGISTER)
        assert len(trips) == 1
        assert str(regmap.REG_JAM_WAVEFORM) in trips[0].detail

    def test_legal_word_exits_safe_state(self):
        device, bus = self._device()
        noise = np.zeros(256, dtype=np.complex128)
        bus.write(regmap.REG_JAM_WAVEFORM, 3)
        assert np.all(device.process(noise).tx == 0)
        bus.write(regmap.REG_JAM_WAVEFORM, 0)  # back to WGN
        assert not device.core.watchdog.safe_state
        assert np.any(device.process(noise).tx != 0)

    def test_without_watchdog_illegal_word_raises(self):
        device = UsrpN210()
        with pytest.raises(ConfigurationError):
            device.bus.write(regmap.REG_JAM_WAVEFORM, 3)
