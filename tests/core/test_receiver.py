"""LbrmReceiver unit tests: delivery, loss detection, NACKs, escalation."""

from __future__ import annotations

import pytest

from repro.core.actions import Deliver, JoinGroup, Notify, SendUnicast
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.events import (
    FreshnessLost,
    FreshnessRestored,
    LoggerUnreachable,
    LossDetected,
    RecoveryComplete,
    RecoveryFailed,
)
from repro.core.packets import (
    DataPacket,
    HeartbeatPacket,
    NackPacket,
    PrimaryInfoPacket,
    PrimaryQueryPacket,
    RetransPacket,
)
from repro.core.receiver import LbrmReceiver


def deliveries(actions):
    return [a for a in actions if isinstance(a, Deliver)]


def nacks(actions):
    return [a for a in actions if isinstance(a, SendUnicast) and isinstance(a.packet, NackPacket)]


def events(actions, etype):
    return [a.event for a in actions if isinstance(a, Notify) and isinstance(a.event, etype)]


def make_receiver(**kwargs) -> LbrmReceiver:
    defaults = {"logger_chain": ("site-logger", "primary"), "source": "source"}
    defaults.update(kwargs)
    return LbrmReceiver("g", ReceiverConfig(), **defaults)


def data(seq, payload=b"p"):
    return DataPacket(group="g", seq=seq, payload=payload)


def test_start_joins_group():
    r = make_receiver()
    actions = r.start(0.0)
    assert any(isinstance(a, JoinGroup) and a.group == "g" for a in actions)


def test_in_order_data_delivered_immediately():
    r = make_receiver()
    r.start(0.0)
    actions = r.handle(data(1, b"hello"), "source", 0.1)
    d = deliveries(actions)
    assert len(d) == 1 and d[0].payload == b"hello" and not d[0].recovered


def test_gap_triggers_immediate_nack_to_local_logger():
    """§6: an LBRM receiver "immediately requests a packet from its local
    logging server" — no suppression delay."""
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.handle(data(3), "source", 0.2)
    sent = nacks(actions)
    assert len(sent) == 1
    assert sent[0].dest == "site-logger"
    assert sent[0].packet.seqs == (2,)
    assert events(actions, LossDetected)[0].seqs == (2,)


def test_later_data_not_delayed_by_gap():
    """Receiver-reliable: fresh data is never held for ordering."""
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.handle(data(3), "source", 0.2)
    assert deliveries(actions)[0].seq == 3


def test_retrans_completes_recovery_with_latency():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(3), "source", 0.2)
    actions = r.handle(RetransPacket(group="g", seq=2, payload=b"r"), "site-logger", 0.25)
    d = deliveries(actions)
    assert d[0].recovered and d[0].seq == 2
    done = events(actions, RecoveryComplete)
    assert done[0].seq == 2
    assert done[0].latency == pytest.approx(0.05)
    assert r.missing == frozenset()


def test_heartbeat_reveals_single_loss():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.handle(HeartbeatPacket(group="g", seq=2, hb_index=1), "source", 0.35)
    assert nacks(actions)[0].packet.seqs == (2,)


def test_duplicate_data_counted_not_redelivered():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.handle(data(1), "source", 0.2)
    assert deliveries(actions) == []
    assert r.stats["duplicates"] == 1


def test_nack_retry_then_escalate_to_primary():
    cfg = ReceiverConfig(nack_retry=0.5, max_nack_retries=1)
    r = LbrmReceiver("g", cfg, logger_chain=("site-logger", "primary"), source="source")
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(3), "source", 0.2)  # NACK #1 to site-logger
    actions = r.poll(0.7)  # retry: NACK #2 to site-logger
    assert nacks(actions)[0].dest == "site-logger"
    actions = r.poll(1.2)  # retries exhausted -> escalate
    unreachable = events(actions, LoggerUnreachable)
    assert unreachable and unreachable[0].logger == "site-logger"
    actions = r.poll(1.2 + 0.001)
    sent = nacks(actions)
    assert sent and sent[0].dest == "primary"


def test_whole_chain_dead_asks_source_for_primary():
    cfg = ReceiverConfig(nack_retry=0.1, max_nack_retries=0)
    r = LbrmReceiver("g", cfg, logger_chain=("site-logger",), source="source")
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(3), "source", 0.2)  # NACK 1 (attempt at level 0)
    actions = r.poll(0.31)  # attempts exhausted, no next level
    queries = [
        a for a in actions if isinstance(a, SendUnicast) and isinstance(a.packet, PrimaryQueryPacket)
    ]
    assert queries and queries[0].dest == "source"
    # Source answers; the receiver extends its chain and retries there.
    r.handle(PrimaryInfoPacket(group="g", primary_addr="new-primary"), "source", 0.35)
    actions = r.poll(0.36)
    sent = nacks(actions)
    assert sent and sent[0].dest == "new-primary"


def test_recovery_abandoned_after_everything_fails():
    cfg = ReceiverConfig(nack_retry=0.1, max_nack_retries=0)
    r = LbrmReceiver("g", cfg, logger_chain=("only-logger",))  # no source fallback
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(3), "source", 0.2)
    actions = r.poll(0.31)
    failed = events(actions, RecoveryFailed)
    assert failed and failed[0].seq == 2
    assert r.missing == frozenset()  # tracker told to forget it
    assert r.stats["recovery_failures"] == 1


def test_application_abandon():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(4), "source", 0.2)
    r.abandon((2, 3))
    assert r.missing == frozenset()
    assert r.poll(10.0) == [] or all(not nacks([a]) for a in r.poll(10.0))


def test_freshness_lost_and_restored():
    r = LbrmReceiver("g", ReceiverConfig(max_idle_time=0.25, watchdog_slack=2.0),
                     logger_chain=("l",))
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.poll(0.7)  # silence > 2 * 0.25 after last packet
    lost = events(actions, FreshnessLost)
    assert lost and not r.fresh
    silence = events(actions, LossDetected)
    assert silence and silence[0].via_silence and silence[0].seqs == ()
    actions = r.handle(data(2), "source", 1.0)
    restored = events(actions, FreshnessRestored)
    assert restored and r.fresh


def test_adaptive_watchdog_follows_backoff():
    """Knowing the sender's schedule: after heartbeat i, silence allowance
    is slack * min(h_min*backoff^i, h_max), not the fixed MaxIT."""
    hb_cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",), heartbeat=hb_cfg)
    r.start(0.0)
    r.handle(data(1), "source", 0.0)
    r.handle(HeartbeatPacket(group="g", seq=1, hb_index=3), "source", 1.75)
    # Next heartbeat due in h_min * 2^3 = 2.0s; watchdog = 2 * 2.0 = 4.0s.
    actions = r.poll(1.75 + 3.9)
    assert events(actions, FreshnessLost) == []
    actions = r.poll(1.75 + 4.1)
    assert events(actions, FreshnessLost)


def test_nack_batching_many_gaps():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    actions = r.handle(data(100), "source", 0.2)
    sent = nacks(actions)
    total = sum(len(n.packet.seqs) for n in sent)
    assert total == 98
    assert all(len(n.packet.seqs) <= NackPacket.MAX_SEQS for n in sent)
    assert len(sent) == 2  # 64 + 34


def test_set_logger_chain_rebinds_levels():
    r = make_receiver()
    r.start(0.0)
    r.handle(data(1), "source", 0.1)
    r.handle(data(3), "source", 0.2)
    r.set_logger_chain(("other-logger",))
    actions = r.poll(1.0)
    sent = nacks(actions)
    assert sent and sent[0].dest == "other-logger"


# -- hb_index comes off the wire: the schedule memo saturates at h_max --------


@pytest.mark.parametrize(
    "hb_cfg, saturation",
    [
        (HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0), 7),
        (HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=30.0), 7),
        (HeartbeatConfig(h_min=0.1, backoff=1.5, h_max=7.0), 11),
        (HeartbeatConfig(h_min=0.5, backoff=1.0, h_max=8.0), 0),
        (HeartbeatConfig(h_min=2.0, backoff=3.0, h_max=2.0), 0),
    ],
)
def test_hb_schedule_exact_below_saturation_and_h_max_from_there(hb_cfg, saturation):
    r = LbrmReceiver("g", ReceiverConfig(), heartbeat=hb_cfg)
    assert r._hb_saturation == saturation
    slack = ReceiverConfig().watchdog_slack
    for i in range(saturation + 4):
        # The very expression the schedule always used: digests hang on it.
        interval = min(hb_cfg.h_min * hb_cfg.backoff**i, hb_cfg.h_max)
        assert r._hb_schedule(i) == (interval, slack * interval)
    top = r._hb_schedule(saturation)
    assert top[0] == (hb_cfg.h_min if hb_cfg.backoff == 1.0 else hb_cfg.h_max)
    assert saturation == 0 or r._hb_schedule(saturation - 1)[0] < hb_cfg.h_max


def test_huge_hb_index_is_handled_and_gets_the_h_max_schedule():
    """backoff**hb_index overflowed a float from index 1024 on: one
    heartbeat from the wire raised OverflowError out of handle()."""
    hb_cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",), heartbeat=hb_cfg)
    r.start(0.0)
    r.handle(data(1), "source", 0.0)
    for hb_index in (1024, 2**32 - 1):
        assert r.handle(HeartbeatPacket(group="g", seq=1, hb_index=hb_index), "source", 1.0) == []
        assert r._hb_schedule(hb_index) == (32.0, 64.0)
        assert r.next_wakeup() == 1.0 + 64.0


def test_hb_schedule_memo_is_bounded_by_the_saturation_index():
    hb_cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",), heartbeat=hb_cfg)
    r.start(0.0)
    r.handle(data(1), "source", 0.0)
    for hb_index in range(10_000):
        r.handle(HeartbeatPacket(group="g", seq=1, hb_index=hb_index * 7919), "source", 1.0)
    assert len(r._hb_wd) <= r._hb_saturation + 1
    # Without a heartbeat config every index is the fixed MaxIT.
    fixed = make_receiver()
    fixed.start(0.0)
    for hb_index in range(100):
        fixed.handle(HeartbeatPacket(group="g", seq=0, hb_index=hb_index), "source", 1.0)
    assert len(fixed._hb_wd) == 1


def test_repeats_of_the_newest_packet_saturate_like_heartbeats():
    """A §7 repeat occupies heartbeat slot ``_repeat_count``; 1024 of them
    in a row overflowed the same expression."""
    hb_cfg = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",), heartbeat=hb_cfg)
    r.start(0.0)
    r.handle(data(1), "source", 0.0)
    for k in range(1100):
        r.handle(data(1), "source", 0.001 * k)
    assert r._expected_interval == 32.0
    assert len(r._hb_wd) <= r._hb_saturation + 1
