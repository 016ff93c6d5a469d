"""StatAckSource unit tests: epochs, deadlines, decisions, t_wait."""

from __future__ import annotations

import random

import pytest

from repro.core.actions import Notify, SendMulticast
from repro.core.config import StatAckConfig
from repro.core.events import EpochStarted, FaultyAckerDetected
from repro.core.packets import (
    AckerResponsePacket,
    AckerSelectPacket,
    DataAckPacket,
    ProbePacket,
    ProbeReplyPacket,
)
from repro.core.retransmit import RetransmitDecision
from repro.core.statack import StatAckSource


def multicast_packets(actions, ptype):
    return [a.packet for a in actions if isinstance(a, SendMulticast) and isinstance(a.packet, ptype)]


def epochs_started(actions) -> list[int]:
    return [a.event.epoch for a in actions if isinstance(a, Notify) and isinstance(a.event, EpochStarted)]


def make_engine(n_sl: float = 50.0, **cfg_kwargs) -> StatAckSource:
    cfg = StatAckConfig(**{"k_ackers": 10, "initial_t_wait": 0.1, **cfg_kwargs})
    engine = StatAckSource("g", cfg, rng=random.Random(0))
    engine.seed_group_size(n_sl)
    return engine


def start_epoch(engine: StatAckSource, ackers: list[str], now: float = 0.0) -> float:
    """Drive one full selection: returns the time the window closed."""
    actions = engine.start(now)
    selects = multicast_packets(actions, AckerSelectPacket)
    assert selects, "selection packet expected"
    epoch = selects[0].epoch
    for acker in ackers:
        engine.handle(AckerResponsePacket(group="g", epoch=epoch), acker, now + 0.01)
    close_at = engine.next_wakeup()
    actions, _ = engine.poll(close_at)
    assert epochs_started(actions) == [epoch]  # the window closed into an active epoch
    return close_at


class TestSelection:
    def test_p_ack_is_k_over_nsl(self):
        engine = make_engine(n_sl=50.0)
        actions = engine.start(0.0)
        select = multicast_packets(actions, AckerSelectPacket)[0]
        assert select.p_ack == pytest.approx(10 / 50)
        assert select.k == 10

    def test_p_ack_capped_at_one(self):
        engine = make_engine(n_sl=4.0)
        actions = engine.start(0.0)
        assert multicast_packets(actions, AckerSelectPacket)[0].p_ack == 1.0

    def test_epoch_started_event_counts_ackers(self):
        engine = make_engine()
        actions = engine.start(0.0)
        epoch = multicast_packets(actions, AckerSelectPacket)[0].epoch
        for acker in ("a", "b", "c"):
            engine.handle(AckerResponsePacket(group="g", epoch=epoch), acker, 0.01)
        actions, _ = engine.poll(engine.next_wakeup())
        events = [a.event for a in actions if isinstance(a, Notify) and isinstance(a.event, EpochStarted)]
        assert events and events[0].expected_ackers == 3
        assert engine.designated_ackers == frozenset({"a", "b", "c"})

    def test_late_response_not_considered(self):
        """"Future ACKs from secondary loggers that do not respond within
        this interval are not considered."""
        engine = make_engine()
        actions = engine.start(0.0)
        epoch = multicast_packets(actions, AckerSelectPacket)[0].epoch
        engine.handle(AckerResponsePacket(group="g", epoch=epoch), "ontime", 0.01)
        engine.poll(engine.next_wakeup())
        engine.handle(AckerResponsePacket(group="g", epoch=epoch), "tardy", 5.0)
        assert "tardy" not in engine.designated_ackers

    def test_stale_epoch_response_ignored(self):
        engine = make_engine()
        engine.start(0.0)
        engine.handle(AckerResponsePacket(group="g", epoch=99), "weird", 0.01)
        engine.poll(engine.next_wakeup())
        assert "weird" not in engine.designated_ackers


class TestAckTracking:
    def test_all_acks_complete_updates_t_wait(self):
        engine = make_engine()
        start_epoch(engine, ["a", "b"])
        t0 = engine.next_wakeup() or 1.0
        engine.on_data_sent(1, 1.0)
        engine.handle(DataAckPacket(group="g", epoch=engine.current_epoch, seq=1), "a", 1.05)
        engine.handle(DataAckPacket(group="g", epoch=engine.current_epoch, seq=1), "b", 1.08)
        # First measured last-ACK time replaces the configured seed.
        assert engine.t_wait == pytest.approx(0.08)
        _, orders = engine.poll(2.0)
        assert orders == []  # nothing outstanding

    def test_missing_acks_large_group_multicast(self):
        engine = make_engine(n_sl=500.0)
        start_epoch(engine, [f"l{i}" for i in range(10)])
        engine.on_data_sent(1, 1.0)
        # only 8 of 10 ack
        for i in range(8):
            engine.handle(DataAckPacket(group="g", epoch=engine.current_epoch, seq=1), f"l{i}", 1.02)
        _, orders = engine.poll(1.0 + engine.t_wait + 0.01)
        assert len(orders) == 1
        assert orders[0].decision is RetransmitDecision.MULTICAST
        assert set(orders[0].missing_ackers) == {"l8", "l9"}

    def test_missing_acks_small_group_unicast(self):
        engine = make_engine(n_sl=10.0)
        start_epoch(engine, [f"l{i}" for i in range(10)])
        engine.on_data_sent(1, 1.0)
        for i in range(9):
            engine.handle(DataAckPacket(group="g", epoch=engine.current_epoch, seq=1), f"l{i}", 1.02)
        _, orders = engine.poll(1.0 + engine.t_wait + 0.01)
        assert orders[0].decision is RetransmitDecision.UNICAST
        assert orders[0].missing_ackers == ("l9",)

    def test_ack_from_non_designated_ignored(self):
        engine = make_engine()
        start_epoch(engine, ["a"])
        engine.on_data_sent(1, 1.0)
        engine.handle(DataAckPacket(group="g", epoch=engine.current_epoch, seq=1), "stranger", 1.01)
        _, orders = engine.poll(1.0 + engine.t_wait + 0.01)
        assert orders and orders[0].decision is not RetransmitDecision.NONE

    def test_remulticast_cap(self):
        engine = make_engine(n_sl=500.0)
        start_epoch(engine, [f"l{i}" for i in range(10)])
        now = 1.0
        engine.on_data_sent(1, now)
        for attempt in range(2, 7):
            _, orders = engine.poll(now + engine.t_wait + 0.01)
            if not orders or orders[0].decision is RetransmitDecision.NONE:
                break
            now = now + engine.t_wait + 0.02
            engine.on_remulticast_sent(1, now, attempt)
        # after MAX_REMULTICASTS the engine stops ordering multicasts
        _, orders = engine.poll(now + 10 * engine.t_wait)
        assert all(o.decision is RetransmitDecision.NONE for o in orders)

    def test_refinement_pulls_estimate_toward_truth(self):
        engine = make_engine(n_sl=100.0, alpha=0.25)
        start_epoch(engine, [f"l{i}" for i in range(10)])  # p_ack=0.1, 10 responders
        before = engine.group_size_estimate
        for seq in range(1, 30):
            engine.on_data_sent(seq, float(seq) * 10)
            for i in range(5):  # only 5 ack each packet => sample 50
                engine.handle(
                    DataAckPacket(group="g", epoch=engine.current_epoch, seq=seq), f"l{i}", seq * 10 + 0.01
                )
            engine.poll(seq * 10 + 5.0)
        assert engine.group_size_estimate < before
        assert engine.group_size_estimate == pytest.approx(50, rel=0.2)


class TestEpochRollover:
    def test_new_epoch_after_epoch_length_packets(self):
        engine = make_engine(epoch_length=3)
        start_epoch(engine, ["a"])
        for seq in (1, 2, 3):
            engine.on_data_sent(seq, float(seq))
        actions, _ = engine.poll(3.0)
        selects = multicast_packets(actions, AckerSelectPacket)
        assert selects and selects[0].epoch == engine.epoch
        # current (active) epoch unchanged until new window closes
        assert engine.current_epoch == engine.epoch - 1

    def test_active_epoch_switches_after_window(self):
        engine = make_engine(epoch_length=2)
        start_epoch(engine, ["a"])
        first = engine.current_epoch
        engine.on_data_sent(1, 1.0)
        engine.on_data_sent(2, 1.1)
        engine.poll(1.2)  # triggers selection
        engine.handle(AckerResponsePacket(group="g", epoch=engine.epoch), "b", 1.25)
        while not epochs_started(engine.poll(engine.next_wakeup())[0]):
            pass
        assert engine.current_epoch == first + 1
        assert engine.designated_ackers == frozenset({"b"})


class TestBootstrap:
    def test_probing_then_first_epoch(self):
        engine = StatAckSource("g", StatAckConfig(k_ackers=5), rng=random.Random(1))
        actions = engine.start(0.0)
        probes = multicast_packets(actions, ProbePacket)
        assert probes and engine.epoch == 0  # bootstrapping: probing, no selection yet
        now = 0.0
        # Simulate 20 loggers answering each probe with coin flips.
        rng = random.Random(9)
        for _ in range(40):
            probe = probes[0]
            for i in range(20):
                if rng.random() < probe.p_ack:
                    engine.handle(ProbeReplyPacket(group="g", probe_id=probe.probe_id), f"l{i}", now)
            now = engine.next_wakeup()
            actions, _ = engine.poll(now)
            probes = multicast_packets(actions, ProbePacket)
            if not probes:
                break
        # Bootstrap over: the estimate converged and the first selection went out.
        assert [s.epoch for s in multicast_packets(actions, AckerSelectPacket)] == [1]
        assert engine.group_size_estimate == pytest.approx(20, rel=0.6)


class TestHotlist:
    def test_faulty_acker_event_and_exclusion(self):
        engine = make_engine(n_sl=1000.0)  # p_ack = 0.01: volunteering every time is damning
        flagged = []
        for round_ in range(12):
            actions = engine.start(float(round_)) if round_ == 0 else None
            if actions is None:
                actions, _ = engine.poll(engine.next_wakeup() or float(round_))
            selects = multicast_packets(actions, AckerSelectPacket)
            if not selects:
                continue
            engine.handle(AckerResponsePacket(group="g", epoch=selects[0].epoch), "bad", round_ + 0.01)
            close_actions, _ = engine.poll(engine.next_wakeup())
            flagged += [
                a.event for a in close_actions
                if isinstance(a, Notify) and isinstance(a.event, FaultyAckerDetected)
            ]
            # force the next selection
            engine._packets_this_epoch = 10**9
            engine.timers.set(("new_epoch",), round_ + 0.5)
        assert flagged and flagged[0].logger == "bad"
        # Quarantined: it volunteered again in the last window, yet is no acker.
        assert engine.designated_ackers == frozenset()
