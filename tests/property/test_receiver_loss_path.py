"""The loser's straight-line path against the general one.

A heartbeat or data packet that reveals exactly one gap, with no NACK
delay, no retransmission-channel fallback and a logger chain to ask, has
the receiver NACK its nearest logger in line (``_begin_recovery``'s first
branch) instead of through the general loop and ``_fire_nacks``.  The
general path is kept here as the reference: a receiver whose
``_begin_recovery`` is the general one gets the same interleaving of
data, heartbeats, repairs and polls as a shipped one, and both must
agree after every step on the actions returned, ``stats``,
``next_wakeup()``, the trace and the registry — over one- and
three-level chains, ``nack_delay`` 0 and > 0, and the channel fallback,
where only the first takes the straight line.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.actions import Action, JoinGroup, Notify
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.events import LossDetected
from repro.core.packets import DataPacket, HeartbeatPacket, RetransPacket
from repro.core.receiver import LbrmReceiver, _Recovery


class _General(LbrmReceiver):
    """A receiver that opens every recovery through the general path."""

    def _begin_recovery(self, gaps, now, via_silence=False) -> list[Action]:
        if not gaps:
            return []
        gaps = tuple(s for s in gaps if s not in self._recoveries)
        if not gaps:
            return []
        self._stats["losses_detected"] += len(gaps)
        self._trace.emit(now, "receiver.loss_detected", seqs=gaps, via_silence=via_silence)
        actions: list[Action] = [Notify(LossDetected(seqs=gaps, via_silence=via_silence))]
        fallback = self._config.retrans_channel_fallback
        if fallback > 0:
            if not self._on_channel:
                self._on_channel = True
                self._stats["channel_joins"] = self._stats.get("channel_joins", 0) + 1
                actions.append(JoinGroup(group=f"{self._group}/retrans"))
            for seq in gaps:
                self._recoveries[seq] = _Recovery(seq=seq, detected_at=now)
                self.timers.set(("nack", seq), now + fallback)
            return actions
        for seq in gaps:
            self._recoveries[seq] = _Recovery(seq=seq, detected_at=now)
            self.timers.set(("nack", seq), now + self._config.nack_delay)
        if self._config.nack_delay == 0.0:
            actions.extend(self._fire_nacks(list(gaps), now))
        return actions


_CHAINS = st.sampled_from([("site-logger",), ("site-logger", "hub-logger", "primary"), ()])
_CONFIGS = st.sampled_from([
    ReceiverConfig(),  # the straight line's: NACK at once, no channel
    ReceiverConfig(nack_delay=0.05),
    ReceiverConfig(retrans_channel_fallback=0.4),
    ReceiverConfig(max_nack_retries=0, nack_retry=0.2),  # escalates on the first retry
])
_SEQS = st.integers(1, 16)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("data"), _SEQS),
    st.tuples(st.just("next"), st.integers(1, 3)),  # highest + k: one gap, or more
    st.tuples(st.just("hb"), st.integers(0, 3), st.integers(0, 6)),  # highest + k, index
    st.tuples(st.just("retrans"), _SEQS),
    st.tuples(st.just("poll"), st.sampled_from([0.01, 0.06, 0.3, 0.6, 2.0])),
), min_size=1, max_size=30)


def _receiver(cls, config, chain, heartbeat):
    return cls("g", config, logger_chain=chain, source="source", heartbeat=heartbeat)


def _drive(steps, config, chain, heartbeat) -> None:
    with obs.recording() as fast_reg:
        fast = _receiver(LbrmReceiver, config, chain, heartbeat)
    with obs.recording() as general_reg:
        general = _receiver(_General, config, chain, heartbeat)
    now = 0.0
    assert fast.start(now) == general.start(now)
    for step in steps:
        now += 0.01
        highest = general.tracker.highest
        kind = step[0]
        if kind == "poll":
            now += step[1]
            got, want = fast.poll(now), general.poll(now)
        else:
            if kind in ("data", "next"):
                seq = step[1] if kind == "data" else highest + step[1]
                packet = DataPacket(group="g", seq=seq, payload=b"p%d" % seq)
            elif kind == "hb":
                packet = HeartbeatPacket(group="g", seq=highest + step[1], hb_index=step[2])
            else:
                packet = RetransPacket(group="g", seq=step[1], payload=b"p%d" % step[1])
            got, want = fast.handle(packet, "src", now), general.handle(packet, "src", now)
        assert got == want, f"after {step}: actions differ"
        assert fast.stats == general.stats, f"after {step}: stats differ"
        assert fast.next_wakeup() == general.next_wakeup(), f"after {step}: wakeups differ"
        assert fast.missing == general.missing
    assert fast_reg.snapshot() == general_reg.snapshot()
    assert fast_reg.trace.events() == general_reg.trace.events()


@settings(max_examples=200, deadline=None)
@given(_STEPS, _CONFIGS, _CHAINS, st.sampled_from([None, HeartbeatConfig(h_min=0.25, backoff=2.0, h_max=32.0)]))
# One gap revealed by a heartbeat, then by data, on a three-level chain
# whose nearest logger never answers: the retries and the escalation
# run on the timer the straight line armed.
@example([("data", 1), ("hb", 1, 1), ("next", 2), ("poll", 0.6), ("poll", 0.6), ("poll", 0.6),
          ("poll", 0.6), ("poll", 0.6), ("retrans", 4)],
         ReceiverConfig(), ("site-logger", "hub-logger", "primary"), None)
# Several gaps at once, and a gap already being recovered revealed again.
@example([("data", 1), ("next", 3), ("hb", 1, 0), ("data", 2), ("next", 2)],
         ReceiverConfig(), ("site-logger",), None)
def test_straight_line_loss_path_matches_the_general_one(steps, config, chain, heartbeat):
    _drive(steps, config, chain, heartbeat)


def test_the_straight_line_is_taken():
    """The examples above go through it: a heartbeat revealing one gap
    NACKs without entering ``_fire_nacks``."""
    r = _receiver(LbrmReceiver, ReceiverConfig(), ("site-logger", "primary"), None)
    r.start(0.0)
    r.handle(DataPacket(group="g", seq=1, payload=b"p1"), "src", 0.1)
    fired = []
    r._fire_nacks = lambda seqs, now: fired.append(seqs) or []
    actions = r.handle(HeartbeatPacket(group="g", seq=2, hb_index=0), "src", 0.2)
    assert not fired
    assert [type(a).__name__ for a in actions] == ["Notify", "SendUnicast"]
    assert actions[1].dest == "site-logger" and actions[1].packet.seqs == (2,)
    assert r.stats["nacks_sent"] == 1 and r.next_wakeup() == 0.2 + ReceiverConfig().nack_retry
