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

import functools
import math
from dataclasses import dataclass
from operator import attrgetter

from repro import obs
from repro.core.actions import (
    Action,
    Address,
    Deliver,
    JoinGroup,
    LeaveGroup,
    Notify,
    SendUnicast,
    own_token,
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
from repro.core.machine import ProtocolMachine, TimerSet
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

__all__ = ["RUN_PACKETS", "Cohort", "LbrmReceiver", "absorb_run", "form_cohorts"]

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


@functools.lru_cache(maxsize=64)
def _schedule_table(
    heartbeat: HeartbeatConfig | None, max_idle_time: float, watchdog_slack: float
) -> dict[int, tuple[float, float]]:
    """(heartbeat interval, watchdog timeout) per schedule index: one
    table per config, shared by its receivers, filled by
    :meth:`LbrmReceiver._hb_schedule`.  The wire's ``hb_index`` is
    unbounded, but indexes past saturation share one entry, so a table
    holds at most saturation + 1.  The registry keeps 64 configs'."""
    return {}


def _saturation_index(hb: HeartbeatConfig) -> int:
    """A schedule index from which every interval is ``h_max``: the first
    such, unless log() rounds up (any later one serves as well)."""
    if hb.is_fixed:
        return 0
    index = math.ceil(math.log(hb.h_max / hb.h_min, hb.backoff))
    while hb.h_min * hb.backoff**index < hb.h_max:  # log() rounded down
        index += 1
    return index


# The packet types absorb_run() takes from a run of lone receivers.  A
# caller cutting a co-timed batch into runs offers it only these (a
# cohort's run a repair or a packet receivers ignore too) and sends the
# rest to handle().
RUN_PACKETS = frozenset((DataPacket, HeartbeatPacket))


def absorb_run(receivers, packet: Packet, now: float) -> tuple[Deliver | None, list[float]]:
    """Take ``packet`` on each receiver's fast path, in order, and stop
    at the first receiver it is not the fast path for (left untouched:
    its caller sends it to :meth:`handle`).

    The transitions that need no general handler: the next data packet
    in order, a heartbeat with no news, a retransmission of a packet
    already held, and a packet a receiver ignores.  Returns the shared
    original delivery of a data packet (None otherwise, or if none was
    absorbed) and each absorbed receiver's ``next_wakeup()`` in order —
    its length is how far the run got.  ``handle`` enters here with its
    one receiver, ``SimNode.receive_batch`` with each run of co-timed
    lone ones and with each :class:`Cohort`, so each guard exists once.
    """
    t = type(packet)
    dues: list[float] = []
    if t is DataPacket:
        seq = packet.seq
        for r in receivers:
            tracker = r._tracker
            if not (
                seq == tracker._highest + 1
                and tracker._first  # started: the first packet sets the baseline
                and r._fresh
                and not r._on_channel
            ):
                break
            # The next packet in order, nothing to restore or leave:
            # what _on_data does for it, without the report, the
            # action list or the branches that cannot fire.
            tracker._highest = seq
            r._repeat_count = 0
            sched = r._hb_wd.get(0) or r._hb_schedule(0)
            r._expected_interval = sched[0]
            r._last_rx = now
            r._maxit_deadline = due = now + sched[1]
            r._stats["data_received"] += 1
            dues.append(r.next_wakeup() if r.timers._deadlines else due)
        return (_deliver_original(packet) if dues else None), dues
    if t is HeartbeatPacket:
        seq, hb_index = packet.seq, packet.hb_index
        if seq <= 0:
            return None, dues
        for r in receivers:
            if not (seq <= r._tracker._highest and r._fresh):
                break
            # No news — nothing sent that we lack, nothing to restore
            # (97 % of heartbeats on a lossy run): what _on_heartbeat
            # does for it is push the watchdog and count it.
            index = hb_index if hb_index <= r._hb_saturation else r._hb_saturation
            sched = r._hb_wd.get(index) or r._hb_schedule(index)
            r._expected_interval = sched[0]
            r._last_rx = now
            r._maxit_deadline = due = now + sched[1]
            r._stats["heartbeats_received"] += 1
            dues.append(r.next_wakeup() if r.timers._deadlines else due)
    elif t is RetransPacket:
        seq = packet.seq
        for r in receivers:
            tracker = r._tracker
            if r._on_channel or not (
                seq <= tracker._highest  # so the baseline is set
                and seq not in tracker._missing
                and seq not in tracker._abandoned
            ):
                break
            # A duplicate (a re-multicast reaches those who hold the
            # packet too): what _on_retrans does for it is count it.
            stats = r._stats
            stats["retrans_received"] += 1
            stats["duplicates"] += 1
            dues.append(r.next_wakeup())
    elif t not in LbrmReceiver._HANDLED:  # a statack probe, say: nothing to take
        dues = [r.next_wakeup() for r in receivers]
    return None, dues


# The counters absorb_run moves: a cohort counts them for its members.
_RUN_COUNTS = ("data_received", "heartbeats_received", "retrans_received", "duplicates")
_NO_COUNTS = (0,) * len(_RUN_COUNTS)
_NO_RECOVERIES: dict = {}  # every cohort member's: the invariant keeps it empty


class _RunCounts(dict):
    """A mirrored cohort's counts: its members' registry counter moves by
    their number.  It holds the cohort's ``members`` list, not the cohort:
    a cohort refers to nothing that refers back, so the last member's
    leaving frees it without the cyclic collector."""

    __slots__ = ("_members", "_mirror")

    def __setitem__(self, key: str, value: int) -> None:
        self._mirror(key).value += (value - self[key]) * len(self._members)
        dict.__setitem__(self, key, value)


class Cohort:
    """Receivers in lockstep sharing one state (DESIGN §6): what
    :func:`absorb_run` writes (it is its own ``_tracker``) and the counts
    it absorbed.  Every member is fresh, off the channel, with no timer
    armed, so to ``absorb_run`` the cohort is one receiver.

    ``ends`` holds, in member order, what the caller delivers each member
    through, and the cohort keeps once what each end would otherwise
    keep per packet: ``log``, the shared deliveries it absorbed, and its
    ``_maxit_deadline``, which is every member's wakeup.  An end takes
    them back through hooks: ``_enter(cohort)`` when its member joins
    and ``_exit(cohort)`` when it leaves.  ``armed`` bounds
    the wakeups the ends have armed from above and is never below the
    deadline, so a run due no earlier than it needs no arm: an end that
    joins with a later arm, or none, raises it.

    ``span`` is what a co-timed batch holds from the first member on
    when it is this cohort's run: ``ends`` itself, or the layout the
    caller kept with ``strays`` in it, ``(members before it, end, here)``
    for each end the run delivers to apart (a member that lost a packet,
    recovering where it stood).  ``key`` is the members' ``state_key()``
    less the shared fields, which no member changes while it belongs.
    """

    __slots__ = (
        "members", "ends", "span", "strays", "log", "armed", "key", "_highest", "_first",
        "_missing", "_abandoned", "_hb_wd",
        "_hb_saturation", "_repeat_count", "_expected_interval", "_last_rx", "_maxit_deadline",
        "_stats", "__weakref__",
    )
    _fresh, _on_channel, timers = True, False, TimerSet()  # the invariant; never armed

    def __init__(self, source: "LbrmReceiver", members: list, ends: list) -> None:
        """``members`` in the state of ``source``, one of them."""
        self.members, self.ends, self.log = members, ends, []
        self.span, self.strays = ends, ()
        tracker = source._tracker
        self._highest, self._first = tracker._highest, tracker._first
        # Every member's holes and abandoned seqs: no member moves them while it belongs.
        self._missing, self._abandoned = frozenset(tracker._missing), frozenset(tracker._abandoned)
        for name in ("_hb_wd", "_hb_saturation", *_SHARED[1:]):
            setattr(self, name, getattr(source, name))
        stats = source._stats
        mirror = stats._instrument if isinstance(stats, obs.StatCounters) else None
        self._stats = (dict if mirror is None else _RunCounts)(dict.fromkeys(_RUN_COUNTS, 0))
        # The members' state_key() less the shared fields: fixed while they
        # belong (its sets frozen: a tracker's own may change once it leaves).
        self.key = tuple(frozenset(value) if type(value) is set else value for value in _fields(source))
        if mirror is not None:
            self._stats._members, self._stats._mirror = members, mirror
        self.armed = self._maxit_deadline
        for member, end in zip(members, ends):
            member._cohort = self
            end._enter(self)

    @property
    def _tracker(self) -> "Cohort":
        """The cohort is its own tracker: a property, not a slot, so it
        holds no reference to itself."""
        return self

    def _hb_schedule(self, hb_index: int) -> tuple[float, float]:
        return self.members[0]._hb_schedule(hb_index)  # the members' own table

    def next_wakeup(self) -> float:
        return self._maxit_deadline  # every member's

    def dissolve(self) -> None:
        """Every member leaves: the packet is not their fast path."""
        for member, end in zip(self.members, self.ends):
            member._catch_up()
            end._exit(self)
        del self.members[:], self.ends[:]  # in place: the counts hold the list

    def admit(self, at: int, r: "LbrmReceiver", end) -> bool:
        """Take in ``r`` as member ``at`` if it is in this state."""
        if not (_fits(r) and _shared(r) == _shared(self) and _fields(r) == self.key):
            return False
        self.members.insert(at, r)
        self.ends.insert(at, end)
        r._join(self, tuple(map(self._stats.__getitem__, _RUN_COUNTS)))
        end._enter(self)
        return True


def _fits(r: "LbrmReceiver") -> bool:
    """Whether a lone receiver keeps the cohort invariant."""
    return bool(r._cohort is None and r._fresh and r._tracker._first
                and not (r._on_channel or r.timers._deadlines))


def form_cohorts(receivers: list, ends: list) -> None:
    """Lone ``receivers`` that absorbed a packet side by side: each
    stretch of two or more in one state becomes a cohort."""
    start, key = 0, None
    for at, r in enumerate([*receivers, None]):
        k = r.state_key() if r is not None and _fits(r) else None
        if k is None or k != key:
            if at - start > 1 and key is not None:
                cohort = Cohort(receivers[start], receivers[start:at], ends[start:at])
                for member in cohort.members:
                    member._join(cohort, _NO_COUNTS)
            start, key = at, k


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
        parse_token=own_token,
    ) -> None:
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
        self._parse_token = parse_token
        self._chain: tuple[Address, ...] = tuple(logger_chain)
        self._source = source
        # Durable with the chain and stats (DESIGN §7): the application
        # persists what it holds, so a restart is not a late join.
        self._tracker = SequenceTracker()
        super().__init__()  # builds the volatile state (_init_volatile)
        # Re-read by every arriving packet; fixed, like the config.
        self._hb_wd = _schedule_table(
            heartbeat, self._config.max_idle_time, self._config.watchdog_slack
        )
        self._hb_saturation = 0 if heartbeat is None else _saturation_index(heartbeat)

        # Receivers are the most numerous machines (thousands in the
        # paper's deployments), so their registry counters aggregate
        # across instances; per-instance numbers stay in `stats`.
        registry = obs.registry()
        self._trace = registry.trace
        self._obs_recovery_latency = registry.histogram("receiver.recovery_latency")
        self._stats = obs.stat_counters(
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

    def _init_volatile(self) -> None:
        """Build what a crash loses (DESIGN §7): recoveries, NACK timers,
        the freshness watchdog, the channel subscription and the cohort
        membership.  The builders' fields are :meth:`state_key`."""
        self.timers = TimerSet()
        self._recoveries: dict[int, _Recovery] = {}
        self._last_rx: float | None = None
        self._on_channel = False  # subscribed to the retransmission channel
        self._repeat_count = 0  # duplicates of the newest packet seen in a row
        self._expected_interval = self._config.max_idle_time
        self._fresh = True
        self._stale_since: float | None = None
        self._awaiting_primary = False
        # The MaxIT watchdog re-arms on *every* packet: a plain float, not
        # a TimerSet entry; next_wakeup()/poll() fold it back in.
        self._maxit_deadline: float | None = None
        self._cohort: Cohort | None = None  # sharing this state (DESIGN §6)
        self._joined: tuple = ()  # the cohort's counts when this one joined

    # -- introspection ----------------------------------------------------

    @property
    def tracker(self) -> SequenceTracker:
        self._leave_cohort()
        return self._tracker

    @property
    def stats(self) -> dict:
        """Per-instance counters (registry-mirrored while recording)."""
        self._leave_cohort()
        return self._stats

    @property
    def missing(self) -> frozenset[int]:
        """Sequence numbers currently being recovered."""
        return self._tracker.missing

    @property
    def logger_chain(self) -> tuple[Address, ...]:
        return self._chain

    def state_key(self) -> tuple:
        """What the builders declare but ``_NOT_STATE``: receivers with
        equal keys are in one state, and may share it.  A member's shared
        fields are read through its cohort.  Sets and dicts compare by
        contents: compare the key at once, never hash it."""
        return _shared(self._cohort or self), _fields(self)

    # -- the cohort (DESIGN §6) ------------------------------------------

    def _join(self, cohort: Cohort, counts: tuple) -> None:
        """Become a member at ``counts``; empty timers and recoveries are shared."""
        self._cohort, self._joined = cohort, counts
        self.timers, self._recoveries = Cohort.timers, _NO_RECOVERIES

    def _catch_up(self) -> None:
        """Take the shared fields and counts as own; stop being a member."""
        cohort = self._cohort
        self._tracker._highest = cohort._highest  # _SHARED, one by one
        self._repeat_count = cohort._repeat_count
        self._expected_interval = cohort._expected_interval
        self._last_rx = cohort._last_rx
        self._maxit_deadline = cohort._maxit_deadline
        for key, joined in zip(_RUN_COUNTS, self._joined):
            # The registry moved as the runs were absorbed: the own count only.
            dict.__setitem__(self._stats, key, self._stats[key] + cohort._stats[key] - joined)
        self._cohort = None
        self.timers, self._recoveries = TimerSet(), {}

    def _leave_cohort(self) -> None:
        """What reads or writes a member but absorb_run comes here first."""
        cohort = self._cohort
        if cohort is None:
            return
        self._catch_up()
        at = cohort.members.index(self)
        cohort.ends[at]._exit(cohort)
        del cohort.members[at], cohort.ends[at]
        cohort.span, cohort.strays = cohort.ends, ()  # its end is no stray
        if len(cohort.members) == 1:
            cohort.members[0]._leave_cohort()

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Join the group, arm the MaxIT freshness watchdog, and open a
        recovery, NACK due now, for each hole the tracker lists and no
        recovery holds (after a restart: every one)."""
        self._leave_cohort()
        self._last_rx = now
        self._maxit_deadline = now + self._watchdog_timeout()
        for seq in sorted(self._tracker.missing.difference(self._recoveries)):
            self._recoveries[seq] = _Recovery(seq=seq, detected_at=now)
            self.timers.set(("nack", seq), now)
        return [JoinGroup(group=self._group)]

    def restart(self, now: float) -> list[Action]:
        """Leave the channel too if on it: ``_on_channel`` is lost."""
        self._leave_cohort()
        leave = [LeaveGroup(group=f"{self._group}/retrans")] if self._on_channel else []
        return super().restart(now) + leave

    def _watchdog_timeout(self) -> float:
        return self._config.watchdog_slack * self._expected_interval

    def _hb_schedule(self, hb_index: int) -> tuple[float, float]:
        """(heartbeat interval, watchdog timeout) for one schedule index:
        the ``_hb_wd`` miss path.  The memo is keyed by the index clamped
        to saturation, so a lookup must clamp first or miss every time
        past it; clamping here too keeps the memo bounded and
        ``backoff**index`` finite whatever the caller passes."""
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
        self._leave_cohort()
        self._chain = tuple(chain)
        for recovery in self._recoveries.values():
            recovery.level = min(recovery.level, max(len(self._chain) - 1, 0))

    def abandon(self, seqs: tuple[int, ...]) -> None:
        """Application decision: stop recovering ``seqs`` (§2 — receivers
        are not obligated to retrieve every lost packet)."""
        self._leave_cohort()
        self._tracker.abandon(seqs)
        for seq in seqs:
            self._recoveries.pop(seq, None)
            self.timers.cancel(("nack", seq))

    # -- inbound ----------------------------------------------------------

    # Exact-type dispatch: one set probe, then identity checks instead of
    # an isinstance ladder on the per-packet hot path.  Plain
    # ``self._on_*`` calls keep class-level monkeypatching working and let
    # the interpreter's adaptive method caches engage; handlers take
    # (packet, now) — receivers never use the src token.
    _HANDLED = frozenset((DataPacket, HeartbeatPacket, RetransPacket, PrimaryInfoPacket))

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        t = type(packet)
        if t not in self._HANDLED:
            return []  # e.g. a statack probe: nothing a receiver takes
        if self._cohort is not None:
            # A held retransmission (a repair unicast after a re-multicast
            # served it) moves only own counters: it stays, with the mark
            # absorb_run reads current.
            self._tracker._highest = self._cohort._highest
            if t is not RetransPacket:
                self._leave_cohort()
        if t is DataPacket:
            delivery, absorbed = absorb_run((self,), packet, now)
            return [delivery] if absorbed else self._on_data(packet, now)
        if t is HeartbeatPacket:
            if absorb_run((self,), packet, now)[1]:
                return []
            return self._on_heartbeat(packet, now)
        if t is RetransPacket:
            if absorb_run((self,), packet, now)[1]:
                return []
            if self._cohort is not None:
                self._leave_cohort()
            return self._on_retrans(packet, now)
        return self._on_primary_info(packet, now)

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
            hb_index = min(self._repeat_count, self._hb_saturation)
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
        self._stats["data_received"] += 1
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
                    self._stats["recoveries"] += 1
                    latency = now - recovery.detected_at
                    self._obs_recovery_latency.observe(latency)
                    self._trace.emit(
                        now, "receiver.recovery_complete", seq=packet.seq, latency=latency
                    )
                    actions.append(Notify(RecoveryComplete(seq=packet.seq, latency=latency)))
        else:
            self._stats["duplicates"] += 1
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now))
        if self._on_channel:
            actions.extend(self._maybe_leave_channel())
        return actions

    def _on_heartbeat(self, packet: HeartbeatPacket, now: float) -> list[Action]:
        index = min(packet.hb_index, self._hb_saturation)
        sched = self._hb_wd.get(index)
        if sched is None:
            sched = self._hb_schedule(index)
        self._expected_interval = sched[0]
        self._last_rx = now
        self._maxit_deadline = now + sched[1]
        actions = [] if self._fresh else self._freshness_restored(now)
        self._stats["heartbeats_received"] += 1
        report = self._tracker.observe_heartbeat(packet.seq)
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now))
        return actions

    def _on_retrans(self, packet: RetransPacket, now: float) -> list[Action]:
        actions: list[Action] = []
        self._stats["retrans_received"] += 1
        report = self._tracker.observe_data(packet.seq)
        if report.is_new:
            actions.append(Deliver(packet.seq, packet.payload, True))
            recovery = self._recoveries.pop(packet.seq, None)
            self.timers.cancel(("nack", packet.seq))
            if recovery is not None:
                self._stats["recoveries"] += 1
                latency = now - recovery.detected_at
                self._obs_recovery_latency.observe(latency)
                self._trace.emit(
                    now, "receiver.recovery_complete", seq=packet.seq, latency=latency
                )
                actions.append(Notify(RecoveryComplete(seq=packet.seq, latency=latency)))
        else:
            self._stats["duplicates"] += 1
        if report.new_gaps:
            actions.extend(self._begin_recovery(report.new_gaps, now))
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

    def _begin_recovery(self, gaps: tuple[int, ...], now: float, via_silence: bool = False) -> list[Action]:
        """Open a recovery for each of ``gaps`` (a packet or heartbeat
        revealed them) that none holds yet."""
        if not gaps:  # the per-packet common case: nothing newly missing
            return []
        config = self._config
        if len(gaps) == 1 and not config.nack_delay and not config.retrans_channel_fallback and self._chain:
            # One packet lost, asked for at once from the nearest logger
            # (§6): what the general path below and _fire_nacks do for it,
            # in line.
            seq = gaps[0]
            if seq in self._recoveries:
                return []
            stats, trace, target = self._stats, self._trace, self._chain[0]
            stats["losses_detected"] += 1
            trace.emit(now, "receiver.loss_detected", seqs=gaps, via_silence=via_silence)
            self._recoveries[seq] = _Recovery(seq, now, 1)
            self.timers.set(("nack", seq), now + config.nack_retry)
            stats["nacks_sent"] += 1
            trace.emit(now, "receiver.nack", target=str(target), seqs=gaps)
            return [
                Notify(LossDetected(seqs=gaps, via_silence=via_silence)),
                SendUnicast(dest=target, packet=NackPacket(group=self._group, seqs=gaps)),
            ]
        gaps = tuple(s for s in gaps if s not in self._recoveries)
        if not gaps:
            return []
        self._stats["losses_detected"] += len(gaps)
        self._trace.emit(now, "receiver.loss_detected", seqs=gaps, via_silence=via_silence)
        actions: list[Action] = [Notify(LossDetected(seqs=gaps, via_silence=via_silence))]
        fallback = config.retrans_channel_fallback
        if fallback > 0:
            # §7 extension: recover by listening to the retransmission
            # channel; the logging hierarchy is only a fallback for
            # packets that have aged off it.
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
            self.timers.set(("nack", seq), now + config.nack_delay)
        if config.nack_delay == 0.0:
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
        # A cohort member has none armed, and its deadline is the cohort's.
        timers = self.timers
        if not timers._deadlines:
            cohort = self._cohort
            return self._maxit_deadline if cohort is None else cohort._maxit_deadline
        due = timers.next_deadline()
        maxit = self._maxit_deadline
        if maxit is None:
            return due
        if due is None or maxit < due:
            return maxit
        return due

    def poll(self, now: float) -> list[Action]:
        self._leave_cohort()
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
        self._stats["freshness_losses"] += 1
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
                self._stats["nacks_sent"] += 1
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
        self._stats["recovery_failures"] += 1
        self._trace.emit(now, "receiver.recovery_failed", seq=recovery.seq, attempts=recovery.attempts)
        actions: list[Action] = [Notify(RecoveryFailed(seq=recovery.seq, attempts=recovery.attempts))]
        actions.extend(self._maybe_leave_channel())
        return actions



# What a cohort shares: the fields absorb_run writes.
_SHARED = ("_highest", "_repeat_count", "_expected_interval", "_last_rx", "_maxit_deadline")
_shared = attrgetter("_tracker._highest", *_SHARED[1:])  # of a receiver or a cohort
# What a state key leaves out besides: the counters, the cohort
# membership, and two caches of what is in it.
_NOT_STATE = frozenset(("_stats", "_cohort", "_joined", "_hb_wd", "_min", *_SHARED))
_OWNED = (SequenceTracker, TimerSet)  # keyed by their own fields
_FIELDS: list = []  # the attrgetter of a receiver's keyed fields, once built


def _fields(r: LbrmReceiver) -> tuple:
    """Every field of ``r`` but ``_NOT_STATE``, and those of its tracker
    and timers in their place, as the first receiver was built.  Read by
    name: ``vars()`` would give each receiver a dict."""
    if not _FIELDS:
        names = []
        for name in vars(r):
            value = getattr(r, name)
            if type(value) in _OWNED:
                names += [f"{name}.{field}" for field in vars(value) if field not in _NOT_STATE]
            elif name not in _NOT_STATE:
                names.append(name)
        _FIELDS.append(attrgetter(*names))
    return _FIELDS[0](r)
