"""Fixed-heartbeat baseline helpers."""

from __future__ import annotations

import pytest

from repro.baselines import fixed_heartbeat_config
from repro.core.heartbeat import FixedHeartbeatSchedule, make_schedule


def test_fixed_config_degenerates_schedule():
    cfg = fixed_heartbeat_config(interval=0.25)
    assert cfg.heartbeat.is_fixed
    schedule = make_schedule(cfg.heartbeat)
    assert isinstance(schedule, FixedHeartbeatSchedule)
    assert schedule.on_data(1.0) == schedule.on_heartbeat(1.0) == 1.25


def test_fixed_config_preserves_other_sections():
    from repro.core.config import LbrmConfig, StatAckConfig

    base = LbrmConfig(statack=StatAckConfig(k_ackers=7))
    cfg = fixed_heartbeat_config(0.5, base)
    assert cfg.statack.k_ackers == 7
    assert cfg.heartbeat.h_min == 0.5


def test_fixed_sender_emits_constant_rate():
    from repro.core.sender import LbrmSender
    from repro.core.actions import SendMulticast
    from repro.core.packets import HeartbeatPacket

    s = LbrmSender("g", fixed_heartbeat_config(0.25), primary=None)
    s.send(b"x", 0.0)
    beats = []
    now = 0.0
    for _ in range(8):
        now = s.next_wakeup()
        actions = s.poll(now)
        beats += [a.packet for a in actions
                  if isinstance(a, SendMulticast) and isinstance(a.packet, HeartbeatPacket)]
    times = [round(0.25 * (i + 1), 2) for i in range(8)]
    assert len(beats) == 8
    assert now == pytest.approx(times[-1])
