"""Tests for the three-stage trigger state machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.trigger import (
    TriggerMode,
    TriggerSource,
    TriggerStateMachine,
)
from repro.kernels import edge_mask
from repro.telemetry.tracer import RingTracer

X = TriggerSource.XCORR
EH = TriggerSource.ENERGY_HIGH
EL = TriggerSource.ENERGY_LOW


def rising_edges(trig, previous_last=False):
    """Edge indices of a 1-D trigger through the one edge helper."""
    return np.flatnonzero(edge_mask(trig, previous_last))


class TestRisingEdges:
    def test_simple_edge(self):
        trig = np.array([0, 0, 1, 1, 0, 1], dtype=bool)
        assert list(rising_edges(trig)) == [2, 5]

    def test_edge_at_start(self):
        trig = np.array([1, 1, 0], dtype=bool)
        assert list(rising_edges(trig)) == [0]

    def test_carry_across_chunks(self):
        trig = np.array([1, 1, 0], dtype=bool)
        assert list(rising_edges(trig, previous_last=True)) == []

    def test_empty(self):
        assert rising_edges(np.zeros(0, dtype=bool)).size == 0

    def test_all_false(self):
        assert rising_edges(np.zeros(10, dtype=bool)).size == 0

    def test_rows_take_their_own_carry(self):
        plane = np.array([[1, 1, 0, 1], [1, 0, 1, 1]], dtype=bool)
        edges = edge_mask(plane, np.array([True, False]))
        assert np.flatnonzero(edges[0]).tolist() == [3]
        assert np.flatnonzero(edges[1]).tolist() == [0, 2]


class TestSingleStage:
    def test_every_matching_event_fires(self):
        fsm = TriggerStateMachine([X])
        jams = fsm.process_events([(10, X), (20, X), (30, EH)])
        assert jams == [10, 20]

    def test_non_matching_ignored(self):
        fsm = TriggerStateMachine([EH])
        assert fsm.process_events([(5, X), (6, EL)]) == []


class TestSequentialStages:
    def test_two_stage_combination(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        jams = fsm.process_events([(10, EH), (50, X)])
        assert jams == [50]

    def test_order_matters(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        assert fsm.process_events([(10, X), (50, EH)]) == []

    def test_window_expiry_discards_progress(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        assert fsm.process_events([(10, EH), (200, X)]) == []

    def test_window_boundary_inclusive(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        assert fsm.process_events([(10, EH), (110, X)]) == [110]

    def test_three_stages(self):
        fsm = TriggerStateMachine([EH, X, EL], window_samples=1000)
        jams = fsm.process_events([(0, EH), (100, X), (500, EL)])
        assert jams == [500]

    def test_restart_after_fire(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        jams = fsm.process_events([(10, EH), (20, X), (30, EH), (40, X)])
        assert jams == [20, 40]

    def test_restart_after_expiry(self):
        fsm = TriggerStateMachine([EH, X], window_samples=50)
        jams = fsm.process_events([(0, EH), (100, EH), (120, X)])
        assert jams == [120]

    def test_expire_ends_the_arm_where_the_window_ran_out(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        fsm.tracer = RingTracer()
        fsm.process_events([(10, EH)])
        fsm.expire(110)
        assert fsm.armed_since == 10
        fsm.expire(5000)
        assert fsm.armed_since is None
        events = [(event.name, event.sample)
                  for event in fsm.tracer.events()]
        assert events == [("fsm.arm", 10), ("fsm.expire", 111)]

    def test_wrong_source_does_not_advance(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        jams = fsm.process_events([(0, EH), (10, EL), (20, X)])
        assert jams == [20]

    def test_reset_discards_progress(self):
        fsm = TriggerStateMachine([EH, X], window_samples=100)
        fsm.process_events([(0, EH)])
        fsm.reset()
        assert fsm.process_events([(10, X)]) == []


class TestAnyMode:
    def test_any_stage_fires(self):
        fsm = TriggerStateMachine([X, EH], mode=TriggerMode.ANY)
        jams = fsm.process_events([(10, EH), (20, X), (30, EL)])
        assert jams == [10, 20]

    def test_any_mode_needs_no_window(self):
        fsm = TriggerStateMachine([X, EH], window_samples=0,
                                  mode=TriggerMode.ANY)
        assert fsm.mode is TriggerMode.ANY


class TestValidation:
    def test_rejects_empty_stages(self):
        with pytest.raises(ConfigurationError):
            TriggerStateMachine([])

    def test_rejects_too_many_stages(self):
        with pytest.raises(ConfigurationError):
            TriggerStateMachine([X, EH, EL, X], window_samples=10)

    def test_sequence_multi_stage_needs_window(self):
        with pytest.raises(ConfigurationError):
            TriggerStateMachine([X, EH], window_samples=0)

    def test_rejects_negative_window(self):
        with pytest.raises(ConfigurationError):
            TriggerStateMachine([X], window_samples=-1)

    def test_stage_listing(self):
        fsm = TriggerStateMachine([X, EH], window_samples=5)
        assert fsm.stages == [X, EH]
