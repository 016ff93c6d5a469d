"""Statistical acknowledgement — the source-side engine (§2.3).

The multicast transmission is divided into *epochs*.  Before each epoch
the source picks ``k`` desired ACKs, computes ``p_ack = k / N_sl`` and
multicasts an Acker Selection Packet; secondary loggers volunteer with
probability ``p_ack`` and become the epoch's **Designated Ackers**.  The
source then knows exactly how many ACKs to expect per data packet; a
shortfall at the ``t_wait`` deadline triggers the retransmission policy
(§2.3.2), and the observed ACK count refines the group-size estimate
(§2.3.3).

:class:`StatAckSource` is a sans-IO component embedded in
:class:`~repro.core.sender.LbrmSender`: the sender forwards relevant
packets and wakeups here, and fulfils the returned
:class:`RetransmitOrder` records (it owns the payload buffer).

Lifecycle::

    BOOTSTRAP --(group size converged)--> SELECTING --(window closed)--> ACTIVE
                                              ^                             |
                                              +--(epoch_length packets)-----+
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro import obs
from repro.core.actions import Action, Address, Notify, SendMulticast
from repro.core.config import StatAckConfig
from repro.core.estimator import GroupSizeEstimator, TWaitEstimator
from repro.core.events import EpochStarted, FaultyAckerDetected
from repro.core.hotlist import AckerHotlist
from repro.core.machine import TimerSet
from repro.core.packets import (
    AckerResponsePacket,
    AckerSelectPacket,
    DataAckPacket,
    ProbePacket,
    ProbeReplyPacket,
)
from repro.core.retransmit import RetransmitDecision, SourceRetransmitPolicy

__all__ = ["StatAckPhase", "RetransmitOrder", "StatAckSource"]

# How long the source waits for PROBE_REPLYs and ACKER_RESPONSEs after a
# probe or selection packet, in multiples of t_wait (§2.3.1).
_SELECTION_WAIT_FACTOR = 2.0


class StatAckPhase(Enum):
    """Where the engine is in its epoch lifecycle."""

    BOOTSTRAP = "bootstrap"  # Bolot probing for the initial N_sl estimate
    SELECTING = "selecting"  # Acker Selection Packet out, window open
    ACTIVE = "active"  # epoch running, data packets tracked


@dataclass(frozen=True, slots=True)
class RetransmitOrder:
    """Instruction to the sender produced at a packet's ACK deadline."""

    seq: int
    decision: RetransmitDecision
    missing_ackers: tuple[Address, ...]
    epoch: int


@dataclass
class _TrackedPacket:
    """ACK bookkeeping for one outstanding data packet."""

    seq: int
    epoch: int
    sent_at: float
    expected: frozenset[Address]
    acks: set[Address] = field(default_factory=set)
    last_ack_at: float | None = None
    decided: bool = False
    attempts: int = 1


class StatAckSource:
    """Epoch, acker, and deadline management for the multicast source."""

    MAX_REMULTICASTS = 3  # per-seq cap so a dead site cannot loop us forever

    def __init__(
        self,
        group: str,
        config: StatAckConfig | None = None,
        rng: random.Random | None = None,
        estimator: GroupSizeEstimator | None = None,
        hotlist: AckerHotlist | None = None,
    ) -> None:
        self._group = group
        self._config = config or StatAckConfig()
        # Deterministic default (str seeds hash stably): acker selection
        # is reproducible even when no RNG is threaded in.
        self._rng = rng or random.Random("repro.core.statack")
        self._policy = SourceRetransmitPolicy(self._config)
        self._estimator = estimator or GroupSizeEstimator(alpha=self._config.alpha)
        self._t_wait = TWaitEstimator(
            alpha=self._config.alpha,
            initial=self._config.initial_t_wait,
            max_widen=self._config.t_wait_max_widen,
        )
        self._hotlist = hotlist or AckerHotlist()
        # Optional §5 rate controller: fed one signal per tracked packet
        # (success on a complete ACK set, loss on a deadline shortfall).
        self.rate_controller = None
        self.timers = TimerSet()

        self._phase = StatAckPhase.BOOTSTRAP
        self._epoch = 0  # selection counter (may be one ahead during SELECTING)
        self._active_epoch = 0  # epoch whose Designated Ackers cover data now
        self._epoch_p_ack = 0.0
        self._designated: frozenset[Address] = frozenset()
        self._pending_responders: set[Address] = set()
        self._known_loggers: set[Address] = set()
        self._packets_this_epoch = 0
        self._tracked: dict[int, _TrackedPacket] = {}
        self._probe_replies: set[Address] = set()
        self._active_probe: int | None = None

        # Counters for the benchmark harness.
        registry = obs.registry()
        self._trace = registry.trace
        self._obs_t_wait = registry.gauge("statack.t_wait", group=group)
        self._obs_group_size = registry.gauge("statack.group_size", group=group)
        self.stats = obs.stat_counters(
            "statack",
            {
                "epochs": 0,
                "remulticasts": 0,
                "unicast_retransmits": 0,
                "acks_received": 0,
                "acks_ignored_quarantine": 0,
                "probes_sent": 0,
            },
            group=group,
        )

    # -- introspection ----------------------------------------------------

    @property
    def phase(self) -> StatAckPhase:
        return self._phase

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def current_epoch(self) -> int:
        """Epoch number the sender must stamp on outgoing data packets.

        During a concurrent re-selection this stays at the previous
        (still active) epoch until the new window closes (§2.3.1: "The
        source then switches to the new epoch for newly transmitted data
        packets" only after hearing from the new Designated Ackers).
        """
        return self._active_epoch

    @property
    def t_wait(self) -> float:
        return self._t_wait.t_wait

    @property
    def group_size_estimate(self) -> float:
        return self._estimator.estimate

    @property
    def designated_ackers(self) -> frozenset[Address]:
        return self._designated

    @property
    def hotlist(self) -> AckerHotlist:
        return self._hotlist

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Begin operation: Bolot probing, or selection if already seeded."""
        if self._estimator.converged:
            return self._begin_selection(now)
        return self._send_probe(now)

    def seed_group_size(self, n_sl: float) -> None:
        """Skip bootstrap probing with a statically configured group size."""
        self._estimator.seed(n_sl)

    # -- sender-facing hooks --------------------------------------------------

    def on_data_sent(self, seq: int, now: float) -> None:
        """Sender multicast data ``seq``; start its ACK collection window."""
        if self._phase is StatAckPhase.BOOTSTRAP:
            return  # no epoch yet: nothing to expect
        self._track(seq, now, attempts=1)
        self._packets_this_epoch += 1
        if (
            self._packets_this_epoch >= self._config.epoch_length
            and self._phase is StatAckPhase.ACTIVE
        ):
            # Next epoch's selection runs concurrently; the current epoch
            # keeps covering data until the new window closes (§2.3.1).
            self.timers.set(("new_epoch",), now)

    def on_remulticast_sent(self, seq: int, now: float, attempts: int) -> None:
        """Sender re-multicast ``seq``; track the repair's ACKs too (Fig 8).

        Karn's rule applies: a retransmitted packet's ACKs are ambiguous
        (they may answer the original), so re-tracked packets never feed
        the RTT estimator.  Instead, like TCP's timer backoff, each
        re-multicast widens t_wait multiplicatively — if the deadline was
        simply too short, this converges it above the true round-trip
        within a few packets, after which clean first-attempt samples
        take over.
        """
        if self._phase is StatAckPhase.BOOTSTRAP:
            return
        self._t_wait.widen(factor=1.5)
        self._sync_gauges()
        tracked = self._tracked.get(seq)
        if tracked is not None:
            tracked.attempts = attempts
            tracked.decided = False
            t_wait = self._t_wait.t_wait
            self.timers.set(("ack_deadline", seq), now + t_wait)
            self.timers.set(("rtt_cap", seq), now + 2.0 * t_wait)
        else:
            self._track(seq, now, attempts=attempts)

    def handle(self, packet, src: Address, now: float) -> list[Action]:
        """Process statack-relevant packets.  Returns protocol actions."""
        if isinstance(packet, AckerResponsePacket):
            return self._on_acker_response(packet, src, now)
        if isinstance(packet, DataAckPacket):
            return self._on_data_ack(packet, src, now)
        if isinstance(packet, ProbeReplyPacket):
            return self._on_probe_reply(packet, src, now)
        return []

    def poll(self, now: float) -> tuple[list[Action], list[RetransmitOrder]]:
        """Fire due deadlines; returns (actions, retransmission orders)."""
        actions: list[Action] = []
        orders: list[RetransmitOrder] = []
        for key in self.timers.pop_due(now):
            kind = key[0]
            if kind == "probe_window":
                actions.extend(self._close_probe_window(now))
            elif kind == "selection_window":
                actions.extend(self._close_selection_window(now))
            elif kind == "ack_deadline":
                order = self._on_ack_deadline(key[1], now)
                if order is not None:
                    orders.append(order)
            elif kind == "rtt_cap":
                self._on_rtt_cap(key[1], now)
            elif kind == "new_epoch":
                # Fires from epoch rollover (phase ACTIVE) or from an
                # empty-selection retry (phase SELECTING, window consumed);
                # never while a selection window is still open.
                if self._phase is not StatAckPhase.BOOTSTRAP and ("selection_window",) not in self.timers:
                    actions.extend(self._begin_selection(now))
        return actions, orders

    def next_wakeup(self) -> float | None:
        return self.timers.next_deadline()

    def _sync_gauges(self) -> None:
        """Publish the RTT and group-size estimator state (§2.3.3)."""
        self._obs_t_wait.set(self._t_wait.t_wait)
        self._obs_group_size.set(self._estimator.estimate)

    # -- bootstrap probing ----------------------------------------------------

    def _send_probe(self, now: float) -> list[Action]:
        round_ = self._estimator.next_round()
        if round_ is None:
            return self._begin_selection(now)
        self._active_probe = round_.probe_id
        self._probe_replies = set()
        self.stats["probes_sent"] += 1
        window = _SELECTION_WAIT_FACTOR * self._t_wait.t_wait
        self.timers.set(("probe_window",), now + window)
        probe = ProbePacket(group=self._group, probe_id=round_.probe_id, p_ack=round_.p_ack)
        return [SendMulticast(group=self._group, packet=probe)]

    def _on_probe_reply(self, packet: ProbeReplyPacket, src: Address, now: float) -> list[Action]:
        if packet.probe_id == self._active_probe:
            self._probe_replies.add(src)
            self._known_loggers.add(src)
        return []

    def _close_probe_window(self, now: float) -> list[Action]:
        if self._active_probe is None:
            return []
        self._estimator.record_round(self._active_probe, len(self._probe_replies))
        self._active_probe = None
        if self._estimator.converged:
            return self._begin_selection(now)
        return self._send_probe(now)

    # -- epoch selection ----------------------------------------------------

    def _begin_selection(self, now: float) -> list[Action]:
        self._epoch += 1
        n_sl = max(self._estimator.estimate, 1.0)
        p_ack = min(1.0, self._config.k_ackers / n_sl)
        self._epoch_p_ack = p_ack
        self._pending_responders = set()
        self._phase = StatAckPhase.SELECTING
        window = _SELECTION_WAIT_FACTOR * self._t_wait.t_wait
        self.timers.set(("selection_window",), now + window)
        select = AckerSelectPacket(group=self._group, epoch=self._epoch, p_ack=p_ack, k=self._config.k_ackers)
        return [SendMulticast(group=self._group, packet=select)]

    def _on_acker_response(self, packet: AckerResponsePacket, src: Address, now: float) -> list[Action]:
        self._known_loggers.add(src)
        if packet.epoch != self._epoch:
            return []  # late response to a superseded selection
        if self._phase is not StatAckPhase.SELECTING:
            return []  # "Future ACKs ... within this interval are not considered"
        self._pending_responders.add(src)
        return []

    def _close_selection_window(self, now: float) -> list[Action]:
        actions: list[Action] = []
        responders = set(self._pending_responders)
        if not responders:
            # Nobody answered within the window.  Either the group is
            # empty or t_wait is below the true round-trip (the window is
            # 2×t_wait): widen it and retry the selection, backing off
            # geometrically so a genuinely empty group stays cheap.
            self.stats["empty_selections"] = self.stats.get("empty_selections", 0) + 1
            self._t_wait.widen()
            self._phase = StatAckPhase.ACTIVE if self._active_epoch else StatAckPhase.SELECTING
            self.timers.set(("new_epoch",), now + _SELECTION_WAIT_FACTOR * self._t_wait.t_wait)
            return actions
        flagged = self._hotlist.record_epoch(self._epoch_p_ack, responders, set(self._known_loggers))
        for logger in flagged:
            actions.append(Notify(FaultyAckerDetected(logger=logger, reason="volunteer rate outlier")))
        self._designated = frozenset(responders - self._hotlist.quarantined)
        self._active_epoch = self._epoch
        # The selection response doubles as a group-size probe (§2.3.3).
        if self._epoch_p_ack > 0:
            self._estimator.refine(len(responders), self._epoch_p_ack)
        self._phase = StatAckPhase.ACTIVE
        self._packets_this_epoch = 0
        self.stats["epochs"] += 1
        self._sync_gauges()
        self._trace.emit(
            now,
            "statack.epoch",
            epoch=self._epoch,
            p_ack=self._epoch_p_ack,
            ackers=len(self._designated),
        )
        actions.append(
            Notify(
                EpochStarted(
                    epoch=self._epoch,
                    p_ack=self._epoch_p_ack,
                    expected_ackers=len(self._designated),
                )
            )
        )
        return actions

    # -- per-packet ACK tracking ----------------------------------------------

    def _track(self, seq: int, now: float, attempts: int) -> None:
        if not self._designated:
            return  # nobody volunteered this epoch: nothing to expect
        self._tracked[seq] = _TrackedPacket(
            seq=seq,
            epoch=self._active_epoch,
            sent_at=now,
            expected=self._designated,
            attempts=attempts,
        )
        t_wait = self._t_wait.t_wait
        self.timers.set(("ack_deadline", seq), now + t_wait)
        self.timers.set(("rtt_cap", seq), now + 2.0 * t_wait)

    def _on_data_ack(self, packet: DataAckPacket, src: Address, now: float) -> list[Action]:
        if self._hotlist.is_quarantined(src):
            self.stats["acks_ignored_quarantine"] += 1
            return []
        tracked = self._tracked.get(packet.seq)
        if tracked is None or packet.epoch != tracked.epoch:
            return []
        if src not in tracked.expected:
            return []  # not a Designated Acker for this epoch
        self.stats["acks_received"] += 1
        tracked.acks.add(src)
        tracked.last_ack_at = now
        if tracked.acks >= tracked.expected and not tracked.decided:
            # Complete: sample RTT from the final ACK and stop the clock.
            # Karn: retransmitted packets give no RTT sample.
            tracked.decided = True
            if tracked.attempts == 1:
                self._t_wait.record_last_ack(now - tracked.sent_at)
            if self.rate_controller is not None:
                self.rate_controller.on_success()
            if self._epoch_p_ack > 0:
                # Every data packet's ACK count refines N_sl (§2.3.3).
                self._estimator.refine(len(tracked.acks), self._epoch_p_ack)
            self._sync_gauges()
            self.timers.cancel(("ack_deadline", packet.seq))
            self.timers.cancel(("rtt_cap", packet.seq))
            del self._tracked[packet.seq]
        return []

    def _on_ack_deadline(self, seq: int, now: float) -> RetransmitOrder | None:
        tracked = self._tracked.get(seq)
        if tracked is None or tracked.decided:
            return None
        tracked.decided = True
        k_prime = len(tracked.acks)
        expected = len(tracked.expected)
        if self._epoch_p_ack > 0 and expected > 0:
            self._estimator.refine(k_prime, self._epoch_p_ack)
        missing = expected - k_prime
        if self.rate_controller is not None:
            if missing > 0:
                self.rate_controller.on_loss()
            else:
                self.rate_controller.on_success()
        # The group is at least as large as the designated set itself; an
        # EWMA dip below `expected` (loss-biased samples) must not flip a
        # warranted multicast into per-acker unicasts.
        n_sl = max(self._estimator.estimate, float(expected))
        decision = self._policy.decide(missing, expected, n_sl)
        if decision is RetransmitDecision.MULTICAST and tracked.attempts > self.MAX_REMULTICASTS:
            decision = RetransmitDecision.NONE
        if decision is RetransmitDecision.MULTICAST:
            self.stats["remulticasts"] += 1
        elif decision is RetransmitDecision.UNICAST:
            self.stats["unicast_retransmits"] += 1
        missing_ackers = tuple(sorted(tracked.expected - tracked.acks, key=str))
        self._sync_gauges()
        self._trace.emit(
            now, "statack.deadline", seq=seq, missing=missing, decision=decision.value
        )
        if decision is RetransmitDecision.NONE:
            # Keep the entry until the rtt_cap timer for a late RTT sample.
            pass
        return RetransmitOrder(seq=seq, decision=decision, missing_ackers=missing_ackers, epoch=tracked.epoch)

    def _on_rtt_cap(self, seq: int, now: float) -> None:
        tracked = self._tracked.pop(seq, None)
        if tracked is None or tracked.attempts > 1:
            return  # Karn: no RTT sample from retransmitted packets
        # "rtt_new is ... the time at which the last ACK ... arrives, up to
        # time 2×t_wait": an incomplete packet contributes the cap, which
        # pushes t_wait up under loss — deliberately conservative.
        if tracked.last_ack_at is not None:
            self._t_wait.record_last_ack(tracked.last_ack_at - tracked.sent_at)
        else:
            self._t_wait.record_last_ack(now - tracked.sent_at)
        self._sync_gauges()
