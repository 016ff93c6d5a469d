"""The receiver's three fast paths against the general handlers.

``absorb_run`` (which ``LbrmReceiver.handle`` enters with its one
receiver) takes the next packet in order — tracker started, ``seq ==
highest + 1``, fresh, not on the retransmission channel — without
entering ``_on_data``/``SequenceTracker.observe_data``, a heartbeat
with no news — ``0 < seq <= highest``, fresh — without entering
``_on_heartbeat``/``observe_heartbeat``, and a retransmission of a
packet held — ``seq <= highest``, neither missing nor abandoned, not on
the channel — without entering ``_on_retrans``.  Both of the simulator's
delivery paths enter the same ``absorb_run`` — the batched loop with a
run of co-timed receivers, the per-receiver fan-out with one — so their
differential cannot see a wrong guard; this one can.  Two receivers get
the same random interleaving, one through ``handle``, the other through
the general handlers directly (which the fast paths never touch), and
must agree after every step on the actions returned (or the error
raised), ``stats``, tracker, freshness, watchdog state and
``next_wakeup()`` — with obs off and under a recording registry (whose
counters must agree too).  A run of receivers with different histories
must then come out of one ``absorb_run`` call as if each had met the
packet alone, up to the first it does not absorb, which it leaves
untouched with everyone after it.

The mutation check is part of the suite: a copy of the module with any
one of the eleven guard conditions dropped must fail the ``@example``
pinned for that condition.

The file closes with the safety cases of the shared ``Deliver``: it is
keyed on the packet *object*, and recovered deliveries never share.
"""

from __future__ import annotations

import dataclasses
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
    st.tuples(st.just("hb"), st.integers(-1, 24), st.integers(0, 12)),  # -1: refused
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


def _frozen(value):
    """A copy of a state key that later steps cannot change: containers
    by contents, and the registry's instruments (one per registry, not
    per receiver) by kind."""
    if isinstance(value, dict):
        return frozenset((k, _frozen(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _frozen(dataclasses.astuple(value))
    if type(value).__module__ in ("repro.obs.metrics", "repro.obs.trace"):
        return type(value).__name__
    return value


def _observable(r: LbrmReceiver) -> dict:
    tracker = r.tracker
    return {
        "stats": dict(r.stats),
        "highest": tracker.highest,
        "first_seen": tracker.first_seen,
        "missing": tracker.missing,
        "next_wakeup": r.next_wakeup(),
        # freshness, watchdog, channel, recoveries, timers, abandoned seqs
        "state": _frozen(r.state_key()),
    }


def _result(handler, *args):
    """What ``handler`` returned, or the error it raised."""
    try:
        return handler(*args)
    except ValueError as error:  # a negative heartbeat sequence
        return repr(error)


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
            got = _result(fast.handle, packet, "source", now)
            want = _result(general._on_heartbeat, packet, now)
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


# One pinned kill per guard condition, in each guard's own order: the
# guard's text (found exactly once in the module), the text that drops
# that condition, and the steps the mutant cannot pass.
_GUARD_KILLS = [
    # the next data packet in order
    ("seq == tracker._highest + 1", "True", ([("data", 1), ("data", 3), ("data", 1)], 0.0)),
    ("and tracker._first", "and True", ([("data", 1)], 0.0)),  # seq 1 == 0 + 1 with no baseline yet
    ("and r._fresh\n", "and True\n", ([("data", 1), ("poll", 3.0), ("next",)], 0.0)),
    ("and not r._on_channel", "and True",
     ([("data", 1), ("data", 3), ("abandon", 2), ("next",)], 0.4)),
    # a heartbeat with no news
    ("if seq <= 0:", "if False:", ([("data", 1), ("hb", -1, 0)], 0.0)),  # refused
    ("seq <= r._tracker._highest and", "seq and", ([("data", 1), ("hb", 3, 1)], 0.0)),  # reveals 2 and 3
    ("and r._fresh):", "and True):", ([("data", 1), ("poll", 3.0), ("hb", 1, 2)], 0.0)),
    # a retransmission of a packet held
    ("if r._on_channel or not (", "if not (",
     ([("data", 1), ("data", 3), ("abandon", 2), ("retrans", 1)], 0.4)),  # on the channel, whole
    ("seq <= tracker._highest", "True", ([("data", 1), ("retrans", 3)], 0.0)),  # reveals 2
    ("and seq not in tracker._missing", "", ([("data", 1), ("data", 3), ("retrans", 2)], 0.0)),
    ("and seq not in tracker._abandoned", "", ([("data", 1), ("data", 3), ("abandon", 2), ("retrans", 2)], 0.0)),
]


@settings(max_examples=250, deadline=None)
@given(st.lists(_STEPS, min_size=1, max_size=60), _FALLBACKS, _HEARTBEATS, st.booleans())
@example(*_GUARD_KILLS[0][2], None, False)
@example(*_GUARD_KILLS[1][2], None, False)
@example(*_GUARD_KILLS[2][2], None, True)
@example(*_GUARD_KILLS[3][2], None, True)
@example(*_GUARD_KILLS[4][2], None, False)
@example(*_GUARD_KILLS[5][2], None, True)
@example(*_GUARD_KILLS[6][2], None, True)
@example(*_GUARD_KILLS[7][2], None, False)
@example(*_GUARD_KILLS[8][2], None, True)
@example(*_GUARD_KILLS[9][2], None, False)
@example(*_GUARD_KILLS[10][2], None, True)
def test_fast_path_agrees_with_the_general_handlers(steps, fallback, heartbeat, recording):
    _drive(steps, fallback, heartbeat, recording)


@pytest.mark.parametrize("condition, dropped, kill", _GUARD_KILLS)
def test_dropping_any_one_guard_condition_fails_its_pinned_example(condition, dropped, kill, monkeypatch):
    source = inspect.getsource(receiver_module)
    assert source.count(condition) == 1, f"the guard no longer reads {condition!r}"
    mutant = types.ModuleType("receiver_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)  # dataclasses look it up
    exec(compile(source.replace(condition, dropped), mutant.__name__, "exec"), mutant.__dict__)
    _drive(*kill, None, False)  # the real guard passes it ...
    with pytest.raises(AssertionError, match="differ"):
        _drive(*kill, None, False, fast_cls=mutant.LbrmReceiver)  # ... the mutant cannot


# -- a run of receivers -----------------------------------------------------------


def _replay(r: LbrmReceiver, steps) -> float:
    """Start ``r`` and feed it ``steps`` through its public entry points;
    returns its clock."""
    now = 0.0
    r.start(now)
    for step in steps:
        now += 0.01
        kind = step[0]
        if kind in ("next", "repeat", "data"):
            highest = r.tracker.highest
            seq = highest + 1 if kind == "next" else max(highest, 1) if kind == "repeat" else step[1]
            r.handle(DataPacket(group="g", seq=seq, payload=b"p%d" % seq), "source", now)
        elif kind == "retrans":
            r.handle(RetransPacket(group="g", seq=step[1], payload=b"p%d" % step[1]), "logger", now)
        elif kind == "hb" and step[1] >= 0:
            r.handle(HeartbeatPacket(group="g", seq=step[1], hb_index=step[2]), "source", now)
        elif kind == "poll":
            now += step[1]
            r.poll(now)
        elif kind == "abandon":
            r.abandon((step[1],))
    return now


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_STEPS, max_size=12), min_size=1, max_size=6),
    _FALLBACKS,
    _HEARTBEATS,
    st.one_of(st.just(None), st.integers(0, 12)),  # None: the next data packet
)
def test_a_run_comes_out_as_if_each_receiver_met_the_packet_alone(histories, fallback, heartbeat, hb_index):
    def receivers():
        built = [LbrmReceiver("g", ReceiverConfig(retrans_channel_fallback=fallback),
                              logger_chain=("site-logger",), heartbeat=heartbeat) for _ in histories]
        return built, max(_replay(r, steps) for r, steps in zip(built, histories)) + 0.01

    (run, now), (alone, _) = receivers(), receivers()
    highest = run[0].tracker.highest  # the packet is the first member's next, or its no-news heartbeat
    if hb_index is None:
        packet = DataPacket(group="g", seq=highest + 1, payload=b"shared")
    else:
        packet = HeartbeatPacket(group="g", seq=highest, hb_index=hb_index)
    before = [_observable(r) for r in run]
    delivery, dues = receiver_module.absorb_run(run, packet, now)
    absorbed = len(dues)
    for i, (r, twin) in enumerate(zip(run, alone)):
        if i < absorbed:
            general = twin._on_data(packet, now) if hb_index is None else twin._on_heartbeat(packet, now)
            assert general == ([delivery] if hb_index is None else [])
            assert _observable(r) == _observable(twin)
            assert dues[i] == r.next_wakeup()
        else:
            assert _observable(r) == before[i]  # the first not absorbed, and everyone after it
    if absorbed < len(run):
        assert receiver_module.absorb_run((run[absorbed],), packet, now) == (None, [])
    assert (delivery is None) == (hb_index is not None or not dues)


# -- the watchdog memo ----------------------------------------------------------


@pytest.fixture
def no_tables():
    """An empty schedule-table registry: the receivers a test builds get
    new tables, not ones an earlier test filled."""
    receiver_module._schedule_table.cache_clear()


@pytest.mark.parametrize("via", ["handle", "_on_heartbeat", "repeat"])
def test_the_watchdog_memo_serves_every_index_past_saturation(via, monkeypatch, no_tables):
    """``_hb_wd`` is keyed by the index clamped to where the schedule
    reaches ``h_max``: a lookup that does not clamp first misses, and
    rebuilds the entry, for every heartbeat (or sender repeat) past it."""
    built = []
    schedule = LbrmReceiver._hb_schedule
    monkeypatch.setattr(LbrmReceiver, "_hb_schedule",
                        lambda self, index: built.append(index) or schedule(self, index))
    r = LbrmReceiver("g", ReceiverConfig(), logger_chain=("l",),
                     heartbeat=HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0))
    r.start(0.0)
    data = DataPacket(group="g", seq=1, payload=b"x")
    r.handle(data, "source", 0.0)
    for index in range(1, 3 * r._hb_saturation):
        heartbeat = HeartbeatPacket(group="g", seq=1, hb_index=index)
        if via == "repeat":
            r.handle(data, "source", index)  # the newest again: one schedule slot further
        elif via == "handle":
            r.handle(heartbeat, "source", index)  # no news: the fast path
        else:
            r._on_heartbeat(heartbeat, index)
    assert r._hb_saturation == 7 and built == list(range(8))  # 0.25 * 2**7 == 32
    assert r._expected_interval == 32.0 and r.stats["duplicates"] == (3 * 7 - 1 if via == "repeat" else 0)


_HB = HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)


def _synced(config: ReceiverConfig = ReceiverConfig(), heartbeat=_HB) -> LbrmReceiver:
    r = LbrmReceiver("g", config, logger_chain=("l",), heartbeat=heartbeat)
    r.start(0.0)
    r.handle(DataPacket(group="g", seq=1, payload=b"x"), "source", 0.0)
    return r


def test_receivers_with_one_config_share_one_schedule_table(no_tables):
    """One table per (heartbeat, max_idle_time, watchdog_slack): equal
    configs share it, and a change to any one of the three reads its own
    schedule, not the table another config filled."""
    shared = _synced()
    equal = _synced(ReceiverConfig(), HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0))
    assert equal._hb_wd is shared._hb_wd
    others = {
        "max_idle_time": _synced(ReceiverConfig(max_idle_time=0.5), None),
        "none": _synced(ReceiverConfig(), None),
        "watchdog_slack": _synced(ReceiverConfig(watchdog_slack=3.0)),
        "heartbeat": _synced(heartbeat=HeartbeatConfig(h_min=0.5, backoff=2.0, h_max=32.0)),
    }
    tables = [shared._hb_wd, *(r._hb_wd for r in others.values())]
    assert len({id(table) for table in tables}) == len(tables)
    deadlines = {name: r._maxit_deadline for name, r in others.items()}
    assert shared._maxit_deadline == 0.5  # slack 2 x h_min
    assert deadlines == {"max_idle_time": 1.0, "none": 0.5, "watchdog_slack": 0.75, "heartbeat": 1.0}


def test_the_schedule_table_registry_holds_at_most_its_cap(no_tables):
    """Configs come from whoever builds receivers: past the cap the
    oldest table leaves the registry, and its receivers keep it."""
    cap = receiver_module._schedule_table.cache_info().maxsize
    first = _synced(ReceiverConfig(max_idle_time=1.0), None)
    for i in range(2 * cap):
        _synced(ReceiverConfig(max_idle_time=2.0 + i), None)
    assert receiver_module._schedule_table.cache_info().currsize == cap
    again = _synced(ReceiverConfig(max_idle_time=1.0), None)
    assert again._hb_wd is not first._hb_wd
    assert first._hb_wd == again._hb_wd == {0: (1.0, 2.0)}


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
