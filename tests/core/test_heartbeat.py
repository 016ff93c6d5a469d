"""Variable-heartbeat schedule tests against the paper's §2.1 description."""

from __future__ import annotations

import pytest

from repro.core.config import HeartbeatConfig
from repro.core.heartbeat import (
    FixedHeartbeatSchedule,
    VariableHeartbeatSchedule,
    heartbeat_times,
    make_schedule,
)


def test_first_heartbeat_h_min_after_data():
    s = VariableHeartbeatSchedule(HeartbeatConfig(h_min=0.25))
    assert s.on_data(10.0) == pytest.approx(10.25)


def test_backoff_doubles_each_heartbeat():
    s = VariableHeartbeatSchedule(HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0))
    s.on_data(0.0)
    assert s.on_heartbeat(0.25) == pytest.approx(0.75)  # h = 0.5
    assert s.on_heartbeat(0.75) == pytest.approx(1.75)  # h = 1.0
    assert s.on_heartbeat(1.75) == pytest.approx(3.75)  # h = 2.0


def test_interval_caps_at_h_max():
    s = VariableHeartbeatSchedule(HeartbeatConfig(h_min=1.0, backoff=4.0, h_max=8.0))
    s.on_data(0.0)
    s.on_heartbeat(1.0)  # h -> 4
    s.on_heartbeat(5.0)  # h -> 8 (16 capped)
    assert s.current_interval == pytest.approx(8.0)
    s.on_heartbeat(13.0)
    assert s.current_interval == pytest.approx(8.0)  # stays capped


def test_data_resets_interval():
    s = VariableHeartbeatSchedule(HeartbeatConfig(h_min=0.25, backoff=2.0))
    s.on_data(0.0)
    for t in (0.25, 0.75, 1.75):
        s.on_heartbeat(t)
    assert s.current_interval > 0.25
    due = s.on_data(2.0)
    assert s.current_interval == pytest.approx(0.25)
    assert due == pytest.approx(2.25)


def test_figure3_timeline():
    """The Figure 3 pattern: beats cluster after data, spread out later."""
    cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    beats = heartbeat_times(cfg, [0.0, 120.0])
    assert beats[:7] == pytest.approx([0.25, 0.75, 1.75, 3.75, 7.75, 15.75, 31.75])
    assert beats[7:] == pytest.approx([63.75, 95.75])
    assert len(beats) == 9  # the 53.3x denominator


def test_heartbeat_preempted_by_data():
    """dt < h_min: every heartbeat is preempted, none transmitted."""
    cfg = HeartbeatConfig(h_min=0.25)
    beats = heartbeat_times(cfg, [0.0, 0.2, 0.4, 0.6])
    assert beats == []


def test_heartbeat_times_respects_horizon():
    cfg = HeartbeatConfig()
    beats = heartbeat_times(cfg, [0.0], until=2.0)
    assert beats == pytest.approx([0.25, 0.75, 1.75])


def test_heartbeat_times_requires_sorted_input():
    with pytest.raises(ValueError):
        heartbeat_times(HeartbeatConfig(), [1.0, 0.5])


def test_heartbeat_times_empty_input():
    assert heartbeat_times(HeartbeatConfig(), []) == []


def test_fixed_schedule_constant_period():
    s = FixedHeartbeatSchedule(0.25)
    assert s.on_data(0.0) == pytest.approx(0.25)
    assert s.on_heartbeat(0.25) == pytest.approx(0.5)
    assert s.on_heartbeat(0.5) == pytest.approx(0.75)


def test_fixed_schedule_rejects_bad_interval():
    with pytest.raises(ValueError):
        FixedHeartbeatSchedule(0.0)


def test_make_schedule_degenerates_fixed():
    fixed = make_schedule(HeartbeatConfig(h_min=0.5, h_max=0.5, backoff=1.0))
    assert isinstance(fixed, FixedHeartbeatSchedule)
    assert fixed.interval == 0.5
    variable = make_schedule(HeartbeatConfig())
    assert isinstance(variable, VariableHeartbeatSchedule)


def test_variable_always_fewer_or_equal_packets_than_fixed():
    """§2.1.2: variable count <= fixed count for any dt (same h_min)."""
    cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    for dt in (0.1, 0.3, 1.0, 5.0, 60.0, 120.0, 1000.0):
        variable = len(heartbeat_times(cfg, [0.0, dt]))
        fixed = len(heartbeat_times(HeartbeatConfig(h_min=0.25, h_max=0.25, backoff=1.0), [0.0, dt]))
        assert variable <= fixed
