"""The multi-standard K-bank correlator: facade, register bus, driver.

Covers the K-bank :class:`repro.hw.CrossCorrelator` facade contract,
the banked register-bus control plane (``REG_BANK_COUNT`` mode switch,
windowed coefficient writes, direct-mapped thresholds), hot-swapping a
bank mid-stream, the ``which_protocol`` telemetry dimension, and the
stale-threshold regression: :meth:`ReactiveJammer.configure` must ship
every per-bank threshold before the count write arms the stacked
correlator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.core.detection import DetectionConfig, ProtocolBank
from repro.core.events import JammingEventBuilder
from repro.core.jammer import ReactiveJammer
from repro.core.presets import reactive_jammer
from repro.dsp.fixed_point import quantize_iq16
from repro.errors import ConfigurationError, StreamError
from repro.hw import register_map as regmap
from repro.hw.cross_correlator import (
    METRIC_MAX,
    CrossCorrelator,
    quantize_coefficients,
)
from repro.hw.trigger import TriggerSource
from repro.hw.uhd import UhdDriver
from repro.hw.usrp import UsrpN210
from repro.kernels import edge_mask
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from tests.kernels.test_xcorr_kernels import _reference_metric


def _random_bank(rng):
    return (rng.integers(-4, 4, 64), rng.integers(-4, 4, 64))


@pytest.fixture
def template_a(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


@pytest.fixture
def template_b(rng2):
    return np.exp(1j * rng2.uniform(0, 2 * np.pi, 64))


class TestFacadeValidation:
    def test_bank_count_bounds(self, rng):
        banked = CrossCorrelator()
        with pytest.raises(ConfigurationError):
            banked.load_banks([], [])
        too_many = [_random_bank(rng) for _ in range(regmap.MAX_BANKS + 1)]
        with pytest.raises(ConfigurationError):
            banked.load_banks(too_many,
                              np.zeros(regmap.MAX_BANKS + 1))

    def test_bad_banks_rejected(self, rng):
        banked = CrossCorrelator()
        with pytest.raises(ConfigurationError):
            banked.load_banks([(np.zeros(32), np.zeros(32))], [100])
        with pytest.raises(ConfigurationError):
            banked.load_banks([(np.full(64, 5), np.zeros(64))], [100])

    def test_threshold_validation(self, rng):
        banked = CrossCorrelator()
        banks = [_random_bank(rng)]
        with pytest.raises(ConfigurationError):
            banked.load_banks(banks, [1, 2])  # count mismatch
        with pytest.raises(ConfigurationError):
            banked.load_banks(banks, [1 << 32])
        banked.load_banks(banks, [100])
        with pytest.raises(ConfigurationError):
            banked.set_threshold(0, -1)
        with pytest.raises(ConfigurationError):
            banked.set_threshold(1, 100)  # index out of range
        banked.set_threshold(0, 0xFFFF_FFFF)
        assert banked.thresholds[0] == 0xFFFF_FFFF

    def test_labels_default_and_rename(self, rng):
        banked = CrossCorrelator()
        banked.load_banks([_random_bank(rng), _random_bank(rng)],
                          [10, 20])
        assert banked.labels == ("bank0", "bank1")
        banked.set_label(1, "zigbee")
        assert banked.labels == ("bank0", "zigbee")
        with pytest.raises(ConfigurationError):
            banked.set_label(2, "nope")
        banked.load_banks([_random_bank(rng)], [10], labels=["wifi"])
        assert banked.labels == ("wifi",)

    def test_rejects_multidimensional_chunks(self, rng):
        banked = CrossCorrelator()
        banked.load_banks([_random_bank(rng)], [0])
        with pytest.raises(StreamError):
            banked.detect(np.zeros((2, 8), dtype=complex))


class TestFacadeStreaming:
    def test_detect_matches_singles_on_a_planted_preamble(
            self, rng, template_a, template_b):
        banks = [quantize_coefficients(template_a),
                 quantize_coefficients(template_b)]
        thresholds = [30_000, 30_000]
        rx = awgn(3000, 1e-6, rng)
        rx[500:564] += template_a
        rx[1800:1864] += template_b

        banked = CrossCorrelator()
        banked.load_banks(banks, thresholds, labels=["a", "b"])
        singles = [CrossCorrelator(ci, cq, threshold=thr)
                   for (ci, cq), thr in zip(banks, thresholds)]
        trigger = banked.detect(rx)
        for k, single in enumerate(singles):
            np.testing.assert_array_equal(trigger[k], single.detect(rx)[0])
        edges = [np.flatnonzero(row) for row in edge_mask(trigger, False)]
        assert edges[0].size == 1 and edges[1].size == 1

    def test_load_banks_clears_carries_but_keeps_history(self, rng,
                                                         template_a):
        # The core owns the trigger carries: a bank-count write reloads
        # the banked correlator and restarts its carries, while its
        # sign history (received data) survives.
        device = UsrpN210()
        driver = UhdDriver(device)
        driver.set_correlator_banks([template_a], [0])  # fires everywhere
        core = device.core

        def xcorr_times(chunk):
            start = core.clock
            return [d.time - start for d in core.process(chunk).detections
                    if d.source is TriggerSource.XCORR]

        assert 0 in xcorr_times(awgn(50, 1.0, rng))
        # Still triggering: the carry suppresses a chunk-boundary edge.
        assert 0 not in xcorr_times(awgn(50, 1.0, rng))
        # Reloading the same banks restarts the carries like a fresh
        # bank of correlators...
        history = core.banked.history
        device.bus.write(regmap.REG_BANK_COUNT, 1)
        np.testing.assert_array_equal(core.banked.history, history)
        assert 0 in xcorr_times(awgn(50, 1.0, rng))

    def test_reset_and_clear_last(self, rng, template_a):
        banks = [_random_bank(rng)]
        banked = CrossCorrelator()
        banked.load_banks(banks, [0])
        samples = rng.normal(size=40) + 1j * rng.normal(size=40)
        banked.detect(samples)
        banked.reset()
        fresh = CrossCorrelator()
        fresh.load_banks(banks, [0])
        np.testing.assert_array_equal(banked.metric(samples),
                                      fresh.metric(samples))
        # Forgetting the carries across a gap is the core's skip().
        device = UsrpN210()
        UhdDriver(device).set_correlator_banks([template_a], [0])
        core = device.core
        core.process(samples)
        core.skip(10)
        start = core.clock
        assert start in [d.time for d in core.process(samples).detections
                         if d.source is TriggerSource.XCORR]

    def test_stage_spans_count_chunks_and_samples(self, template_a):
        device = UsrpN210()
        UhdDriver(device).set_correlator_banks([template_a], [30_000])
        telemetry = Telemetry()
        telemetry.attach(device)
        device.process(np.zeros(100, dtype=np.complex128))
        device.process(np.zeros(50, dtype=np.complex128))
        samples = {stage: [event.args["samples"]
                           for event in telemetry.events()
                           if event.name == stage]
                   for stage in ("hw.banked_correlator",
                                 "hw.cross_correlator")}
        assert samples == {"hw.banked_correlator": [100, 50],
                           "hw.cross_correlator": []}


@pytest.fixture
def banked_rig(template_a, template_b):
    device = UsrpN210()
    driver = UhdDriver(device)
    driver.set_correlator_banks([template_a, template_b],
                                [30_000, 30_000],
                                labels=["wifi", "zigbee"])
    driver.set_trigger_stages([TriggerSource.XCORR])
    driver.set_jam_uptime(100)
    driver.set_control(jammer_enabled=True)
    return device, driver


class TestBankedCoreMode:
    def test_banks_ship_over_the_register_bus(self, banked_rig,
                                              template_a, template_b):
        device, _driver = banked_rig
        assert device.core.bank_count == 2
        assert device.bus.read(regmap.REG_BANK_COUNT) == 2
        assert device.core.banked.labels == ("wifi", "zigbee")
        for index, template in enumerate([template_a, template_b]):
            ci, cq = quantize_coefficients(template)
            got_i, got_q = device.core.banked.bank_coefficients(index)
            np.testing.assert_array_equal(got_i, ci)
            np.testing.assert_array_equal(got_q, cq)

    def test_events_carry_the_winning_protocol(self, rng, banked_rig,
                                               template_a, template_b):
        device, driver = banked_rig
        rx = awgn(4000, 1e-6, rng)
        rx[500:564] += template_a
        rx[2000:2064] += template_b
        out = device.run(rx)
        xcorr = [d for d in out.detections
                 if d.source is TriggerSource.XCORR]
        assert [d.protocol for d in xcorr] == ["wifi", "zigbee"]
        assert driver.detection_counts()[TriggerSource.XCORR] == 2
        assert len(out.jams) == 2

    def test_bank_threshold_register_is_live(self, banked_rig):
        device, driver = banked_rig
        driver.set_bank_threshold(1, 12_345)
        assert device.bus.read(regmap.REG_BANK_THRESHOLD_BASE + 1) \
            == 12_345
        assert device.core.banked.thresholds[1] == 12_345

    def test_count_zero_returns_to_the_legacy_correlator(
            self, rng, banked_rig, template_a):
        device, driver = banked_rig
        driver.set_correlator_template(template_a)
        driver.set_xcorr_threshold(30_000)
        driver.set_bank_count(0)
        rx = awgn(2000, 1e-6, rng)
        rx[500:564] += template_a
        out = device.run(rx)
        xcorr = [d for d in out.detections
                 if d.source is TriggerSource.XCORR]
        assert len(xcorr) == 1
        assert xcorr[0].protocol is None

    def test_hot_swap_takes_effect_next_chunk(self, rng, banked_rig,
                                              template_a, template_b):
        device, driver = banked_rig
        third = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        # Chunk 1: bank 0 still holds template_a, which is absent.
        quiet = awgn(1000, 1e-6, rng)
        out1 = device.run_chunk(quiet) if hasattr(device, "run_chunk") \
            else device.core.process(quiet)
        assert not [d for d in out1.detections
                    if d.source is TriggerSource.XCORR]
        # Swap bank 0 to the third template without touching the run.
        driver.set_correlator_bank(0, third, threshold=30_000,
                                   label="wimax")
        rx = awgn(1500, 1e-6, rng)
        rx[400:464] += third
        out2 = device.core.process(rx)
        xcorr = [d for d in out2.detections
                 if d.source is TriggerSource.XCORR]
        assert [d.protocol for d in xcorr] == ["wimax"]
        assert device.core.banked.labels == ("wimax", "zigbee")

    def test_bank_select_out_of_range_rejected(self, banked_rig,
                                               template_a):
        _device, driver = banked_rig
        with pytest.raises(ConfigurationError):
            driver.set_correlator_bank(regmap.MAX_BANKS, template_a)
        with pytest.raises(ConfigurationError):
            driver.set_bank_threshold(-1, 100)

    def test_bank_count_register_bounds(self, banked_rig):
        device, driver = banked_rig
        with pytest.raises(ConfigurationError):
            driver.set_bank_count(regmap.MAX_BANKS + 1)
        # A rogue direct bus write is rejected by the core decode too.
        with pytest.raises(ConfigurationError):
            device.bus.write(regmap.REG_BANK_COUNT, regmap.MAX_BANKS + 1)  # repro-lint: disable=RJ002 (deliberate overflow, must be rejected)
        assert device.core.bank_count == 2  # unchanged by the rejects


def _reference_edges(pieces, coeffs, threshold, clear_at):
    """Absolute rising edges of one correlator fed ``pieces`` in order.

    ``pieces`` are ``(absolute start, samples)``.  The sign history
    runs on across every piece; the trigger carry clears before each
    piece index in ``clear_at``.
    """
    samples = np.concatenate([piece for _start, piece in pieces])
    trigger = _reference_metric(samples, *coeffs) > threshold
    edges = []
    position = 0
    last = False
    for index, (start, piece) in enumerate(pieces):
        chunk = trigger[position:position + piece.size]
        if index in clear_at:
            last = False
        previous = np.concatenate([[last], chunk[:-1]])
        edges += (start + np.flatnonzero(chunk & ~previous)).tolist()
        last = bool(chunk[-1])
        position += piece.size
    return edges


class TestModeSwitchStreaming:
    """``REG_BANK_COUNT`` switches 0 -> 2 -> 0 between chunks.

    Each register file keeps its own correlator: the legacy one sees
    only the chunks processed at count 0 and the banked one only those
    processed at count 2, each with its sign history running on across
    the other's chunks.  Every count write clears the bank carries; the
    legacy carry survives the switch.
    """

    CHUNK = 1000
    #: Bank count selected for each chunk.
    PLAN = (0, 0, 2, 2, 0, 2, 0, 0, 2)

    @pytest.mark.parametrize("legacy_threshold", [30_000, 0])
    def test_events_match_one_reference_per_register_file(
            self, rng, template_a, template_b, legacy_threshold):
        legacy = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        device = UsrpN210()
        driver = UhdDriver(device)
        driver.set_correlator_template(legacy)
        driver.set_xcorr_threshold(legacy_threshold)
        # Bank 1 fires on every sample, so its carry shows at every
        # chunk and segment edge.
        thresholds = (30_000, 0)
        driver.set_correlator_banks([template_a, template_b], thresholds,
                                    labels=["a", "b"])
        driver.set_bank_count(0)

        rx = awgn(self.CHUNK * len(self.PLAN), 1e-6, rng)
        # A preamble straddles every chunk edge by a different amount:
        # the one the next chunk's register file looks for.
        for index in range(1, len(self.PLAN)):
            start = index * self.CHUNK - 10 - 6 * index
            template = template_a if self.PLAN[index] else legacy
            rx[start:start + 64] += template
        rx = quantize_iq16(rx)

        events = []
        pieces = {0: [], 2: []}
        bank_clears = []
        count = 0
        for index, mode in enumerate(self.PLAN):
            if mode != count:
                driver.set_bank_count(mode)
                count = mode
                if mode:
                    bank_clears.append(len(pieces[2]))
            start = index * self.CHUNK
            chunk = rx[start:start + self.CHUNK]
            pieces[mode].append((start, chunk))
            out = device.core.process(chunk, quantized=True)
            events += [(d.time, d.protocol) for d in out.detections
                       if d.source is TriggerSource.XCORR]

        expected = [(t, None) for t in _reference_edges(
            pieces[0], quantize_coefficients(legacy), legacy_threshold,
            clear_at=())]
        for label, template, threshold in zip(
                ("a", "b"), (template_a, template_b), thresholds):
            expected += [(t, label) for t in _reference_edges(
                pieces[2], quantize_coefficients(template), threshold,
                clear_at=set(bank_clears))]
        order = {None: 0, "a": 1, "b": 2}
        expected.sort(key=lambda event: (event[0], order[event[1]]))
        assert events == expected
        # The planted preambles fire in both register files.
        assert any(p is None for _t, p in events)
        assert any(p == "a" for _t, p in events)


class TestWhichProtocolTelemetry:
    def test_per_protocol_counters(self, rng, banked_rig, template_a,
                                   template_b):
        device, _driver = banked_rig
        registry = MetricsRegistry()
        device.core.attach_metrics(registry)
        rx = awgn(4000, 1e-6, rng)
        rx[500:564] += template_a
        rx[2000:2064] += template_b
        rx[3000:3064] += template_b
        device.run(rx)
        assert registry.counter(
            "detect.which_protocol.wifi").value == 1
        assert registry.counter(
            "detect.which_protocol.zigbee").value == 2


class TestConfigureAtomicity:
    """Regression: no chunk may ever see a freshly-armed stacked
    correlator with stale (power-on) thresholds.  ``configure`` must
    park the bank count at 0, ship every per-bank threshold, and only
    then arm with the final count write."""

    def _recording_jammer(self):
        jammer = ReactiveJammer()
        writes = []
        bus_write = jammer.device.bus.write

        def recorder(address, value):
            writes.append((address, value))
            bus_write(address, value)

        jammer.device.bus.write = recorder
        return jammer, writes

    def _configure(self, jammer, template_a, template_b):
        jammer.configure(
            DetectionConfig(banks=(
                ProtocolBank("wifi", template_a, 30_000),
                ProtocolBank("zigbee", template_b, 20_000),
            )),
            JammingEventBuilder().on_correlation(),
            reactive_jammer(1e-5))

    def test_thresholds_land_before_the_count_arms(self, template_a,
                                                   template_b):
        jammer, writes = self._recording_jammer()
        self._configure(jammer, template_a, template_b)

        count_writes = [i for i, (addr, _v) in enumerate(writes)
                        if addr == regmap.REG_BANK_COUNT]
        threshold_writes = [
            i for i, (addr, _v) in enumerate(writes)
            if regmap.REG_BANK_THRESHOLD_BASE <= addr
            < regmap.REG_BANK_THRESHOLD_BASE + regmap.MAX_BANKS]
        coeff_writes = [
            i for i, (addr, _v) in enumerate(writes)
            if regmap.REG_BANK_COEFF_I_BASE <= addr
            < regmap.REG_BANK_COEFF_Q_BASE + regmap.COEFF_WORDS]

        # Parked at zero first, armed with the true count last.
        assert writes[count_writes[0]][1] == 0
        assert writes[count_writes[-1]][1] == 2
        assert len(threshold_writes) == 2
        # Every threshold lands while the correlator is disarmed and
        # before any coefficient word.
        assert max(threshold_writes) < min(coeff_writes)
        assert max(threshold_writes) < count_writes[-1]
        assert max(coeff_writes) < count_writes[-1]

    def test_configured_thresholds_are_live_not_poweron(
            self, template_a, template_b):
        jammer, _writes = self._recording_jammer()
        self._configure(jammer, template_a, template_b)
        np.testing.assert_array_equal(
            jammer.device.core.banked.thresholds, [30_000, 20_000])
        assert not np.any(
            jammer.device.core.banked.thresholds == METRIC_MAX)

    def test_reconfigure_to_legacy_disarms_the_bank(self, template_a,
                                                    template_b):
        jammer, _writes = self._recording_jammer()
        self._configure(jammer, template_a, template_b)
        assert jammer.device.core.bank_count == 2
        jammer.configure(
            DetectionConfig(template=template_a,
                            xcorr_threshold=30_000),
            JammingEventBuilder().on_correlation(),
            reactive_jammer(1e-5))
        assert jammer.device.core.bank_count == 0
        assert jammer.device.bus.read(regmap.REG_BANK_COUNT) == 0
