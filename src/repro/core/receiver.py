"""The LBRM receiver (§2, §2.2.1, §6).

A receiver detects loss from sequence gaps or MaxIT silence, and asks
its *local* logging server for the missing packets — immediately, with
no suppression delay, because the logging hierarchy guarantees at most
one upstream request per site (this is the §6 latency advantage over
wb-style recovery).  If the local logger stops answering, the receiver
escalates to the next logger in its chain, ultimately the primary; if
even the cached primary is gone it asks the source who the new primary
is (§2.2.3).

Reliability policy belongs to the receiver: recovery can be disabled,
bounded, or abandoned per-sequence (:meth:`LbrmReceiver.abandon`)
without any protocol involvement from the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.core.actions import (
    Action,
    Address,
    Deliver,
    JoinGroup,
    LeaveGroup,
    Notify,
    SendUnicast,
)
from repro.core.config import HeartbeatConfig, ReceiverConfig
from repro.core.events import (
    FreshnessLost,
    FreshnessRestored,
    LoggerUnreachable,
    LossDetected,
    RecoveryComplete,
    RecoveryFailed,
)
from repro.core.machine import ProtocolMachine
from repro.core.packets import (
    DataPacket,
    HeartbeatPacket,
    NackPacket,
    Packet,
    PrimaryInfoPacket,
    PrimaryQueryPacket,
    RetransPacket,
)
from repro.core.sequence import SequenceTracker

__all__ = ["LbrmReceiver"]

# A packet is one immutable datum for the whole group, so its original
# (non-recovered) delivery record is one value: minted for the first
# receiver, handed to the rest.  One entry, keyed on the packet *object*
# (never on field equality), swapped as a single tuple so every reader
# sees a matching pair.  Recovered deliveries are per receiver and never
# pass through here.
_shared_delivery: tuple[Packet | None, Deliver | None] = (None, None)


def _deliver_original(packet: DataPacket) -> Deliver:
    global _shared_delivery
    shared = _shared_delivery
    if shared[0] is not packet:
        _shared_delivery = shared = (packet, Deliver(packet.seq, packet.payload, False))
    return shared[1]


def _saturation_index(hb: HeartbeatConfig) -> int:
    """A schedule index from which every interval is ``h_max``: the first
    such, unless log() rounds up (any later one serves as well)."""
    if hb.is_fixed:
        return 0
    index = math.ceil(math.log(hb.h_max / hb.h_min, hb.backoff))
    while hb.h_min * hb.backoff**index < hb.h_max:  # log() rounded down
        index += 1
    return index


@dataclass
class _Recovery:
    """Per-missing-sequence recovery state."""

    seq: int
    detected_at: float
    attempts: int = 0  # NACKs sent to the current chain level
    level: int = 0  # index into the logger chain
    requeries: int = 0  # PRIMARY_QUERY rounds already burned on this seq


class LbrmReceiver(ProtocolMachine):
    """Receiving endpoint of one LBRM group.

    Parameters
    ----------
    group:
        The multicast group to subscribe to.
    logger_chain:
        Recovery targets nearest-first, e.g. ``(site_logger, primary)``.
        May start empty and be filled by discovery
        (:meth:`set_logger_chain`).
    source:
        The source's address, used only to re-locate the primary after
        total chain failure (§2.2.3).  Optional.
    """

    def __init__(
        self,
        group: str,
        config: ReceiverConfig | None = None,
        *,
        logger_chain: tuple[Address, ...] = (),
        source: Address | None = None,
        heartbeat: "HeartbeatConfig | None" = None,
        parse_token=None,
    ) -> None:
        super().__init__()
        self._group = group
        self._config = config or ReceiverConfig()
        # Knowing the sender's heartbeat schedule lets the freshness
        # watchdog adapt: after the i-th heartbeat the next one is due in
        # min(h_min·backoff^i, h_max), so silence beyond slack× that is a
        # real outage — §2.1.1's "small multiple (2 in our
        # implementation)" of the loss period.  Without it the watchdog
        # uses the fixed MaxIT, suited to fixed-heartbeat senders.
        self._heartbeat = heartbeat
        # Maps wire address tokens (strings) to transport addresses: the
        # simulator's identity by default; host:port parsing under asyncio.
        self._parse_token = parse_token or (lambda token: token)
        self._chain: tuple[Address, ...] = tuple(logger_chain)
        self._source = source
        self._tracker = SequenceTracker()
        self._recoveries: dict[int, _Recovery] = {}
        self._last_rx: float | None = None
        self._on_channel = False  # subscribed to the retransmission channel
        self._repeat_count = 0  # duplicates of the newest packet seen in a row
        self._expected_interval = self._config.max_idle_time
        self._fresh = True
        self._stale_since: float | None = None
        self._awaiting_primary = False
        # The MaxIT watchdog re-arms on *every* packet, so it lives in a
        # plain attribute instead of the TimerSet: one float store per
        # packet instead of a dict write plus min-cache upkeep.
        # next_wakeup()/poll() fold it back in.
        self._maxit_deadline: float | None = None
        # (interval, watchdog timeout) per heartbeat index, memoized:
        # every arriving packet re-reads its index's schedule, and
        # caching slack·interval alongside saves the per-packet multiply.
        # (Like the pre-existing interval memo, this bakes in the config
        # at first use — reconfiguring a live receiver is unsupported.)
        # ``hb_index`` comes off the wire: indexes at or past the point
        # where the schedule reaches h_max share one entry, so the memo
        # is bounded and ``backoff**index`` cannot overflow.
        self._hb_wd: dict[int, tuple[float, float]] = {}
        self._hb_saturation = 0 if heartbeat is None else _saturation_index(heartbeat)

        # Receivers are the most numerous machines (thousands in the
        # paper's deployments), so their registry counters aggregate
        # across instances; per-instance numbers stay in `stats`.
        registry = obs.registry()
        self._trace = registry.trace
        self._obs_recovery_latency = registry.histogram("receiver.recovery_latency")
        self.stats = obs.stat_counters(
            "receiver",
            {
                "data_received": 0,
                "heartbeats_received": 0,
                "retrans_received": 0,
                "duplicates": 0,
                "nacks_sent": 0,
                "losses_detected": 0,
                "recoveries": 0,
                "recovery_failures": 0,
                "freshness_losses": 0,
            },
        )

    # -- introspection ----------------------------------------------------

    @property
    def tracker(self) -> SequenceTracker:
        return self._tracker

    @property
    def fresh(self) -> bool:
        """False while the MaxIT freshness guarantee is broken."""
        return self._fresh

    @property
    def missing(self) -> frozenset[int]:
        """Sequence numbers currently being recovered."""
        return self._tracker.missing

    @property
    def logger_chain(self) -> tuple[Address, ...]:
        return self._chain

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Join the group and arm the MaxIT freshness watchdog."""
        self._last_rx = now
        self._expected_interval = self._config.max_idle_time
        self._maxit_deadline = now + self._watchdog_timeout()
        return [JoinGroup(group=self._group)]

    def _watchdog_timeout(self) -> float:
        return self._config.watchdog_slack * self._expected_interval

    def _hb_schedule(self, hb_index: int) -> tuple[float, float]:
        """(heartbeat interval, watchdog timeout) for one schedule index:
        the ``_hb_wd`` miss path, which saturated indexes take every time."""
        hb_index = min(hb_index, self._hb_saturation)
        pair = self._hb_wd.get(hb_index)
        if pair is None:
            if self._heartbeat is None:
                interval = self._config.max_idle_time
            else:
                hb = self._heartbeat
                interval = min(hb.h_min * hb.backoff**hb_index, hb.h_max)
            pair = self._hb_wd[hb_index] = (interval, self._config.watchdog_slack * interval)
        return pair

    def set_logger_chain(self, chain: tuple[Address, ...]) -> None:
        """Install (or replace) the recovery chain, nearest logger first."""
        self._chain = tuple(chain)
        for recovery in self._recoveries.values():
            recovery.level = min(recovery.level, max(len(self._chain) - 1, 0))

    def abandon(self, seqs: tuple[int, ...]) -> None:
        """Application decision: stop recovering ``seqs`` (§2 — receivers
        are not obligated to retrieve every lost packet)."""
        self._tracker.abandon(seqs)
        for seq in seqs:
            self._recoveries.pop(seq, None)
            self.timers.cancel(("nack", seq))

    # -- inbound ----------------------------------------------------------

    # Exact-type dispatch: four identity checks instead of an isinstance
    # ladder on the per-packet hot path.  Plain ``self._on_*`` calls keep
    # class-level monkeypatching working and let the interpreter's
    # adaptive method caches engage; handlers take (packet, now) —
    # receivers never use the src token.
    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        t = type(packet)
        if t is DataPacket:
            tracker = self._tracker
            if (
                packet.seq == tracker._highest + 1
                and tracker._first  # started: the first packet sets the baseline
                and self._fresh
                and not self._on_channel
            ):
                # The next packet in order, nothing to restore or leave:
                # what _on_data does for it, without the report, the
                # action list growth or the branches that cannot fire.
                tracker._highest = packet.seq
                self._repeat_count = 0
                sched = self._hb_wd.get(0) or self._hb_schedule(0)
                self._expected_interval = sched[0]
                self._last_rx = now
                self._maxit_deadline = now + sched[1]
                self.stats["data_received"] += 1
                return [_deliver_original(packet)]
            return self._on_data(packet, now)
        if t is HeartbeatPacket:
            return self._on_heartbeat(packet, now)
        if t is RetransPacket:
            return self._on_retrans(packet, now)
        if t is PrimaryInfoPacket:
            return self._on_primary_info(packet, now)
        return []

    def _on_data(self, packet: DataPacket, now: float) -> list[Action]:
        tracker = self._tracker
        report = tracker.observe_data(packet.seq)
        if report.is_new:
            self._repeat_count = 0
            hb_index = 0
        # A non-new observation never moves ``highest``, so checking the
        # tracker *after* observe_data sees the same value the packet was
        # compared against on arrival.
        elif tracker.started and packet.seq == tracker.highest:
            # A repeat of the newest packet occupies a heartbeat slot
            # (§7's small-packet extension): advance the watchdog along
            # the sender's backoff schedule like a heartbeat would.
            self._repeat_count += 1
            hb_index = self._repeat_count
        else:
            hb_index = -1
        if hb_index >= 0:
            sched = self._hb_wd.get(hb_index)
            if sched is None:
                sched = self._hb_schedule(hb_index)
            self._expected_interval = sched[0]
            timeout = sched[1]
        else:
            timeout = self._config.watchdog_slack * self._expected_interval
        # _liveness() inlined: this runs once per arriving packet.
        self._last_rx = now
        self._maxit_deadline = now + timeout
        actions = [] if self._fresh else self._freshness_restored(now)
        self.stats["data_received"] += 1
        if report.is_new:
            # Receiver-reliable: fresh data is delivered immediately, never
            # held for in-order completion (§1, §5).
            if not report.filled_gap:
                actions.append(_deliver_original(packet))
            else:
                # A sender repeat (§7 small-packet extension) or a
                # re-multicast repaired this gap before our NACK did.
                actions.append(Deliver(packet.seq, packet.payload, True))
                recovery = self._recoveries.pop(packet.seq, None)
                self.timers.cancel(("nack", packet.seq))
                if recovery is not None:
                    self.stats["recoveries"] += 1
                    latency = now - recovery.detected_at
                    self._obs_recovery_latency.observe(latency)
                    self._trace.emit(
                        now, "receiver.recovery_complete", seq=packet.seq, latency=latency
                    )
                    actions.append(Notify(RecoveryComplete(seq=packet.seq, latency=latency)))
        else:
            self.stats["duplicates"] += 1
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now, via_silence=False))
        if self._on_channel:
            actions.extend(self._maybe_leave_channel())
        return actions

    def _on_heartbeat(self, packet: HeartbeatPacket, now: float) -> list[Action]:
        sched = self._hb_wd.get(packet.hb_index)
        if sched is None:
            sched = self._hb_schedule(packet.hb_index)
        self._expected_interval = sched[0]
        self._last_rx = now
        self._maxit_deadline = now + sched[1]
        actions = [] if self._fresh else self._freshness_restored(now)
        self.stats["heartbeats_received"] += 1
        report = self._tracker.observe_heartbeat(packet.seq)
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now, via_silence=False))
        return actions

    def _on_retrans(self, packet: RetransPacket, now: float) -> list[Action]:
        actions: list[Action] = []
        self.stats["retrans_received"] += 1
        report = self._tracker.observe_data(packet.seq)
        if report.is_new:
            actions.append(Deliver(packet.seq, packet.payload, True))
            recovery = self._recoveries.pop(packet.seq, None)
            self.timers.cancel(("nack", packet.seq))
            if recovery is not None:
                self.stats["recoveries"] += 1
                latency = now - recovery.detected_at
                self._obs_recovery_latency.observe(latency)
                self._trace.emit(
                    now, "receiver.recovery_complete", seq=packet.seq, latency=latency
                )
                actions.append(Notify(RecoveryComplete(seq=packet.seq, latency=latency)))
        else:
            self.stats["duplicates"] += 1
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now, via_silence=False))
        if self._on_channel:
            actions.extend(self._maybe_leave_channel())
        return actions

    def _on_primary_info(self, packet: PrimaryInfoPacket, now: float) -> list[Action]:
        """The source told us the current primary: extend the chain."""
        if not self._awaiting_primary:
            return []
        self._awaiting_primary = False
        new_primary = self._parse_token(packet.primary_addr)
        if new_primary not in self._chain:
            self._chain = self._chain + (new_primary,)
        actions: list[Action] = []
        for recovery in self._recoveries.values():
            recovery.level = len(self._chain) - 1
            recovery.attempts = 0
            self.timers.set(("nack", recovery.seq), now)
        return actions

    # -- loss detection & recovery -----------------------------------------

    def _freshness_restored(self, now: float) -> list[Action]:
        self._fresh = True
        silent = now - self._stale_since if self._stale_since is not None else 0.0
        self._stale_since = None
        return [Notify(FreshnessRestored(silent_for=silent))]

    def _begin_recovery(self, gaps: tuple[int, ...], now: float, via_silence: bool) -> list[Action]:
        if not gaps:  # the per-packet common case: nothing newly missing
            return []
        gaps = tuple(s for s in gaps if s not in self._recoveries)
        if not gaps:
            return []
        self.stats["losses_detected"] += len(gaps)
        self._trace.emit(now, "receiver.loss_detected", seqs=gaps, via_silence=via_silence)
        actions: list[Action] = [Notify(LossDetected(seqs=gaps, via_silence=via_silence))]
        fallback = self._config.retrans_channel_fallback
        if fallback > 0:
            # §7 extension: recover by listening to the retransmission
            # channel; the logging hierarchy is only a fallback for
            # packets that have aged off it.
            if not self._on_channel:
                self._on_channel = True
                self.stats["channel_joins"] = self.stats.get("channel_joins", 0) + 1
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

    def _maybe_leave_channel(self) -> list[Action]:
        """Unsubscribe from the retransmission channel once whole again."""
        if self._on_channel and not self._recoveries:
            self._on_channel = False
            return [LeaveGroup(group=f"{self._group}/retrans")]
        return []

    def next_wakeup(self) -> float | None:
        # Called twice per delivery (node wakeup bookkeeping).  In the
        # steady state no NACK timers are armed, so peeking at the
        # TimerSet's dict directly skips a method call on the fast path.
        timers = self.timers
        if not timers._deadlines:
            return self._maxit_deadline
        due = timers.next_deadline()
        maxit = self._maxit_deadline
        if maxit is None:
            return due
        if due is None or maxit < due:
            return maxit
        return due

    def poll(self, now: float) -> list[Action]:
        maxit = self._maxit_deadline
        if maxit is not None and maxit <= now:
            actions = self._on_maxit(now)
        else:
            actions = []
        due = self.timers.pop_due(now)
        if due:
            actions.extend(self._fire_nacks([key[1] for key in due], now))
        return actions

    def _on_maxit(self, now: float) -> list[Action]:
        idle = now - self._last_rx if self._last_rx is not None else self._config.max_idle_time
        self._maxit_deadline = now + self._watchdog_timeout()
        if not self._fresh:
            return []
        self._fresh = False
        self._stale_since = self._last_rx
        self.stats["freshness_losses"] += 1
        self._trace.emit(now, "receiver.freshness_lost", idle_for=idle)
        # Silence tells the receiver *that* it may have lost packets, not
        # which — recovery begins when the next packet reveals the gap.
        return [
            Notify(FreshnessLost(idle_for=idle)),
            Notify(LossDetected(seqs=(), via_silence=True)),
        ]

    def _fire_nacks(self, seqs: list[int], now: float) -> list[Action]:
        """Send (or retry) retransmission requests, batched per target."""
        actions: list[Action] = []
        by_target: dict[Address, list[int]] = {}
        for seq in sorted(seqs):
            recovery = self._recoveries.get(seq)
            if recovery is None:
                self.timers.cancel(("nack", seq))
                continue
            if recovery.attempts >= self._config.max_nack_retries + 1:
                actions.extend(self._escalate(recovery, now))
                continue
            target = self._target_for(recovery)
            if target is None:
                actions.extend(self._give_up(recovery, now))
                continue
            recovery.attempts += 1
            by_target.setdefault(target, []).append(seq)
            self.timers.set(("nack", seq), now + self._config.nack_retry)
        for target, batch in by_target.items():
            for start in range(0, len(batch), NackPacket.MAX_SEQS):
                chunk = tuple(batch[start : start + NackPacket.MAX_SEQS])
                self.stats["nacks_sent"] += 1
                self._trace.emit(now, "receiver.nack", target=str(target), seqs=chunk)
                actions.append(SendUnicast(dest=target, packet=NackPacket(group=self._group, seqs=chunk)))
        return actions

    def _target_for(self, recovery: _Recovery) -> Address | None:
        if not self._chain:
            return None
        level = min(recovery.level, len(self._chain) - 1)
        return self._chain[level]

    def _escalate(self, recovery: _Recovery, now: float) -> list[Action]:
        """The current logger exhausted its retries: go up the hierarchy."""
        current = self._target_for(recovery)
        actions: list[Action] = []
        if current is not None:
            actions.append(Notify(LoggerUnreachable(logger=current)))
        if recovery.level + 1 < len(self._chain):
            recovery.level += 1
            recovery.attempts = 0
            self.timers.set(("nack", recovery.seq), now)
            return actions
        if self._source is not None and recovery.requeries < 1:
            # Whole chain dead: ask the source for the current primary.
            # One re-query per recovery — if the answer is the same dead
            # primary (no replicas to fail over to), give up cleanly
            # rather than NACK forever.
            recovery.requeries += 1
            recovery.attempts = 0
            self.timers.set(("nack", recovery.seq), now + self._config.nack_retry)
            if not self._awaiting_primary:
                self._awaiting_primary = True
                actions.append(
                    SendUnicast(dest=self._source, packet=PrimaryQueryPacket(group=self._group))
                )
            return actions
        actions.extend(self._give_up(recovery, now))
        return actions

    def _give_up(self, recovery: _Recovery, now: float) -> list[Action]:
        self._recoveries.pop(recovery.seq, None)
        self.timers.cancel(("nack", recovery.seq))
        self._tracker.abandon((recovery.seq,))
        self.stats["recovery_failures"] += 1
        self._trace.emit(now, "receiver.recovery_failed", seq=recovery.seq, attempts=recovery.attempts)
        actions: list[Action] = [Notify(RecoveryFailed(seq=recovery.seq, attempts=recovery.attempts))]
        actions.extend(self._maybe_leave_channel())
        return actions

