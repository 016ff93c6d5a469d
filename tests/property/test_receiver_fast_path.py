"""The receiver's in-order fast path against the general handlers.

``LbrmReceiver.handle`` answers the next packet in order — tracker
started, ``seq == highest + 1``, fresh, not on the retransmission
channel — without entering ``_on_data``/``SequenceTracker.observe_data``.
Both simulation engines enter the same ``handle``, so the engine
differential cannot see a wrong guard; this one can.  Two receivers get
the same random interleaving, one through ``handle``, the other through
the general handlers directly (which the fast path never touches), and
must agree after every step on the actions returned, ``stats``, tracker,
freshness, watchdog state and ``next_wakeup()`` — with obs off and under
a recording registry (whose counters must agree too).

The mutation check is part of the suite: a copy of the module with any
one of the four guard conditions dropped must fail the ``@example``
pinned for that condition.

The file closes with the safety cases of the shared ``Deliver``: it is
keyed on the packet *object*, and recovered deliveries never share.
"""

from __future__ import annotations

import inspect
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import receiver as receiver_module
from repro.core.actions import Deliver
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.packets import DataPacket, HeartbeatPacket, RetransPacket
from repro.core.receiver import LbrmReceiver

_SEQS = st.integers(min_value=1, max_value=24)
_STEPS = st.one_of(
    st.just(("next",)),  # the packet the fast path is for: highest + 1
    st.just(("next",)),
    st.just(("repeat",)),  # the newest again (§7 small-packet repeat)
    st.tuples(st.just("data"), _SEQS),  # gaps, duplicates, gap fills
    st.tuples(st.just("retrans"), _SEQS),
    st.tuples(st.just("hb"), st.integers(0, 24), st.integers(0, 12)),
    st.tuples(st.just("poll"), st.sampled_from([0.05, 0.3, 0.6, 3.0, 70.0])),
    st.tuples(st.just("abandon"), _SEQS),
)
_HEARTBEATS = st.sampled_from([None, HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)])
_FALLBACKS = st.sampled_from([0.0, 0.4])  # > 0: gaps join the retrans channel


def _pair(fallback: float, heartbeat, recording: bool, fast_cls=LbrmReceiver):
    """Two identical receivers, each under its own registry (or none)."""
    built = []
    for cls in (fast_cls, LbrmReceiver):
        config = ReceiverConfig(retrans_channel_fallback=fallback)
        kwargs = dict(logger_chain=("site-logger", "primary"), source="source", heartbeat=heartbeat)
        if recording:
            with obs.recording() as reg:
                built.append((cls("g", config, **kwargs), reg))
        else:
            built.append((cls("g", config, **kwargs), None))
    return built


def _observable(r: LbrmReceiver) -> dict:
    tracker = r.tracker
    return {
        "stats": dict(r.stats),
        "highest": tracker.highest,
        "first_seen": tracker.first_seen,
        "missing": tracker.missing,
        "abandoned": tracker.abandoned,
        "duplicates": tracker.duplicates,
        "fresh": r.fresh,
        "next_wakeup": r.next_wakeup(),
        "on_channel": r._on_channel,
        "repeat_count": r._repeat_count,
        "expected_interval": r._expected_interval,
        "last_rx": r._last_rx,
        "recovering": sorted(r._recoveries),
    }


def _drive(steps, fallback, heartbeat, recording, fast_cls=LbrmReceiver):
    (fast, fast_reg), (general, general_reg) = _pair(fallback, heartbeat, recording, fast_cls)
    now = 0.0
    assert fast.start(now) == general.start(now)
    for step in steps:
        now += 0.01
        kind = step[0]
        if kind in ("next", "repeat", "data"):
            highest = general.tracker.highest
            seq = highest + 1 if kind == "next" else max(highest, 1) if kind == "repeat" else step[1]
            packet = DataPacket(group="g", seq=seq, payload=b"p%d" % seq)
            got, want = fast.handle(packet, "source", now), general._on_data(packet, now)
        elif kind == "retrans":
            packet = RetransPacket(group="g", seq=step[1], payload=b"p%d" % step[1])
            got, want = fast.handle(packet, "logger", now), general._on_retrans(packet, now)
        elif kind == "hb":
            packet = HeartbeatPacket(group="g", seq=step[1], hb_index=step[2])
            got, want = fast.handle(packet, "source", now), general._on_heartbeat(packet, now)
        elif kind == "poll":
            now += step[1]
            got, want = fast.poll(now), general.poll(now)
        else:
            got = want = fast.abandon((step[1],))
            general.abandon((step[1],))
        assert got == want, f"after {step}: actions differ"
        assert _observable(fast) == _observable(general), f"after {step}: state differs"
    if recording:
        assert fast_reg.snapshot() == general_reg.snapshot()
        assert fast_reg.trace.events() == general_reg.trace.events()


# One pinned kill per guard condition, in the guard's own order.
_GUARD_KILLS = [
    ("packet.seq == tracker._highest + 1", ([("data", 1), ("data", 3), ("data", 1)], 0.0)),
    ("and tracker._first", ([("data", 1)], 0.0)),  # seq 1 == 0 + 1 with no baseline yet
    ("and self._fresh", ([("data", 1), ("poll", 3.0), ("next",)], 0.0)),
    ("and not self._on_channel", ([("data", 1), ("data", 3), ("abandon", 2), ("next",)], 0.4)),
]


@settings(max_examples=250, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=60), _FALLBACKS, _HEARTBEATS, st.booleans())
@example(*_GUARD_KILLS[0][1], None, False)
@example(*_GUARD_KILLS[1][1], None, False)
@example(*_GUARD_KILLS[2][1], None, True)
@example(*_GUARD_KILLS[3][1], None, True)
def test_fast_path_agrees_with_the_general_handlers(steps, fallback, heartbeat, recording):
    _drive(steps, fallback, heartbeat, recording)


@pytest.mark.parametrize("condition, kill", _GUARD_KILLS)
def test_dropping_any_one_guard_condition_fails_its_pinned_example(condition, kill, monkeypatch):
    source = inspect.getsource(receiver_module)
    assert source.count(condition) == 1, f"the guard no longer reads {condition!r}"
    always = "True" if not condition.startswith("and ") else "and True"
    mutant = types.ModuleType("receiver_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)  # dataclasses look it up
    exec(compile(source.replace(condition, always), mutant.__name__, "exec"), mutant.__dict__)
    _drive(*kill, None, False)  # the real guard passes it ...
    with pytest.raises(AssertionError, match="differ"):
        _drive(*kill, None, False, fast_cls=mutant.LbrmReceiver)  # ... the mutant cannot


# -- the shared Deliver ---------------------------------------------------------


def _started(first_seq: int = 1) -> LbrmReceiver:
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",))
    r.start(0.0)
    r.handle(DataPacket(group="g", seq=first_seq, payload=b"first"), "source", 0.0)
    return r


def _only_delivery(actions) -> Deliver:
    (delivery,) = [a for a in actions if isinstance(a, Deliver)]
    return delivery


def test_one_packet_object_yields_one_deliver_for_every_receiver():
    packet = DataPacket(group="g", seq=2, payload=b"shared")
    receivers = [_started() for _ in range(5)]
    got = [_only_delivery(r.handle(packet, "source", 0.1)) for r in receivers]
    assert got[0] == Deliver(2, b"shared", False)
    assert all(d is got[0] for d in got)
    # ... through the general path as well (a receiver's first packet).
    fresh = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",))
    assert _only_delivery(fresh.handle(packet, "source", 0.1)) is got[0]


def test_the_memo_is_keyed_on_the_packet_object_never_on_its_fields():
    # Equal (group, seq), different payloads: two sources that happen to
    # be at the same sequence number must not see each other's data.
    ours = DataPacket(group="g", seq=2, payload=b"ours")
    theirs = DataPacket(group="g", seq=2, payload=b"theirs")
    for _ in range(3):  # alternately: the single entry is replaced each time
        assert _only_delivery(_started().handle(ours, "source", 0.1)).payload == b"ours"
        assert _only_delivery(_started().handle(theirs, "source", 0.1)).payload == b"theirs"
    # Equal in every field, distinct objects: equal deliveries, by value.
    twin = DataPacket(group="g", seq=2, payload=b"ours")
    assert twin == ours and twin is not ours
    assert _only_delivery(_started().handle(twin, "source", 0.1)) == Deliver(2, b"ours", False)


def test_one_packet_object_through_two_deployments_alternately():
    packet = DataPacket(group="g", seq=2, payload=b"both")
    deployment_a = [_started() for _ in range(3)]
    deployment_b = [_started() for _ in range(3)]
    for a, b in zip(deployment_a, deployment_b):
        assert _only_delivery(a.handle(packet, "source", 0.1)) == Deliver(2, b"both", False)
        assert _only_delivery(b.handle(packet, "source", 0.2)) == Deliver(2, b"both", False)
    for r in deployment_a + deployment_b:
        assert r.tracker.highest == 2 and r.stats["data_received"] == 2


@pytest.mark.parametrize("via", ["data", "retrans"])
def test_a_recovered_delivery_never_shares(via):
    packet = DataPacket(group="g", seq=2, payload=b"late")
    first, behind, last = _started(), _started(), _started()
    behind.handle(DataPacket(group="g", seq=3, payload=b"newer"), "source", 0.1)  # 2 is now a gap
    in_order = _only_delivery(first.handle(packet, "source", 0.1))
    assert in_order.recovered is False
    if via == "data":  # the same packet object, filling the gap (a sender repeat)
        filled = _only_delivery(behind.handle(packet, "source", 0.2))
    else:
        filled = _only_delivery(
            behind.handle(RetransPacket(group="g", seq=2, payload=b"late"), "l", 0.2)
        )
    assert filled == Deliver(2, b"late", True) and filled is not in_order
    # ... and did not displace or poison the shared one.
    assert _only_delivery(last.handle(packet, "source", 0.3)) is in_order
