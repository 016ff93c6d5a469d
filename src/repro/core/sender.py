"""The LBRM multicast source (§2, §2.1, §2.2.3, §2.3).

:class:`LbrmSender` multicasts application data with sequence numbers,
keeps the variable-heartbeat promise (a packet at least every MaxIT),
retains data until the primary logging server — and, when replicas are
configured, at least one replica — has acknowledged it, runs the
statistical-acknowledgement engine, and orchestrates primary-log
failover.

The sender is sans-IO: ``send()``/``handle()``/``poll()`` return
:class:`~repro.core.actions.Action` lists for the harness to execute.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from enum import Enum

from repro import obs
from repro.core.actions import Action, Address, Notify, SendMulticast, SendUnicast
from repro.core.config import LbrmConfig
from repro.core.events import PrimaryFailover, Remulticast, SourceBufferReleased
from repro.core.heartbeat import make_schedule
from repro.core.machine import ProtocolMachine
from repro.core.packets import (
    DataPacket,
    HeartbeatPacket,
    LogAckPacket,
    NackPacket,
    Packet,
    PrimaryInfoPacket,
    PrimaryQueryPacket,
    PromotePacket,
    ReplAckPacket,
    ReplStatusQueryPacket,
    ReplUpdatePacket,
    RetransPacket,
)
from repro.core.errors import ConfigError
from repro.core.ratecontrol import AimdRateController, RateControlConfig
from repro.core.retransmit import RetransmitDecision
from repro.core.retranschannel import RetransChannelConfig, RetransChannelSender
from repro.core.statack import StatAckSource

__all__ = ["LbrmSender", "FailoverPhase"]

_NO_SEQ = 2**64 - 1  # ReplAck sentinel for "nothing held yet"


class FailoverPhase(Enum):
    """Primary-log failover state (§2.2.3)."""

    HEALTHY = "healthy"
    QUERYING = "querying"  # asking replicas for their cumulative sequence
    HANDOVER = "handover"  # pushing buffered tail to the promoted replica


class LbrmSender(ProtocolMachine):
    """Multicast source with logging, heartbeats, and statistical acking.

    Parameters
    ----------
    group:
        Multicast group this source owns (LBRM groups are fine-grained,
        one source each — §1).
    primary:
        Address of the primary logging server, or ``None`` when the log
        is co-located (the application pairs the sender with a local
        :class:`~repro.core.logger.LogServer` on the same node).
    replicas:
        Addresses of the primary-log replicas, used for failover.  The
        sender may only discard data acknowledged replica-safe when any
        are configured.
    enable_statack:
        Run the §2.3 statistical-acknowledgement engine.
    addr_token:
        Stable string naming this source on the wire (used in
        PRIMARY_INFO responses); defaults to ``str(primary)`` concerns
        aside, harnesses pass the node's own token.
    format_token:
        Renders an :class:`Address` as its wire token for PRIMARY_INFO
        replies.  The simulator's addresses are already strings, so the
        default ``str`` is the identity there; asyncio harnesses pass
        :func:`repro.aio.node.addr_token` so a ``(host, port)`` tuple
        crosses the wire in the ``host:port`` form receivers can parse.
    """

    def __init__(
        self,
        group: str,
        config: LbrmConfig | None = None,
        *,
        primary: Address | None = None,
        replicas: tuple[Address, ...] = (),
        enable_statack: bool = False,
        retrans_channel: "RetransChannelConfig | None" = None,
        rate_control: "RateControlConfig | None" = None,
        addr_token: str = "source",
        format_token=None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__()
        self._group = group
        self._config = config or LbrmConfig()
        self._primary = primary
        self._replicas = tuple(replicas)
        self._addr_token = addr_token
        self._format_token = format_token or str
        # String-seeded: deterministic run to run without an explicit
        # RNG (str seeds hash stably), and sans-IO core stays free of
        # simulator imports.
        self._rng = rng or random.Random("repro.core.sender")

        self._seq = 0
        self._hb_index = 0
        self._last_payload: bytes | None = None
        self._schedule = make_schedule(self._config.heartbeat)
        self._unacked: "OrderedDict[int, bytes]" = OrderedDict()
        self._unacked_sent_at: dict[int, float] = {}
        self._released_up_to = 0
        self._remulticast_attempts: dict[int, int] = {}
        # Short-horizon payload cache for statistical-ack retransmissions:
        # a LOG_ACK may release the reliability buffer before the t_wait
        # deadline fires, but the source must still be able to re-multicast
        # (Figure 8).  Bounded ring, oldest evicted first.
        self._recent: "OrderedDict[int, bytes]" = OrderedDict()
        self._recent_cap = 4096

        self._statack: StatAckSource | None = None
        if enable_statack:
            self._statack = StatAckSource(group, self._config.statack, rng=self._rng)

        self._rchan: RetransChannelSender | None = None
        if retrans_channel is not None:
            self._rchan = RetransChannelSender(group, retrans_channel)

        self.rate_controller: AimdRateController | None = None
        if rate_control is not None:
            if self._statack is None:
                raise ConfigError("rate control requires statistical acknowledgement")
            self.rate_controller = AimdRateController(rate_control)
            self._statack.rate_controller = self.rate_controller

        self._failover = FailoverPhase.HEALTHY
        # Vote per replica: (cumulative prefix or -1, commit point, epoch).
        self._failover_votes: dict[Address, tuple[int, int, int]] = {}
        self._handover_target: Address | None = None
        self._handover_pending: list[int] = []
        # Promotion term (DESIGN.md §10).  The configured primary serves
        # term 1; every failover moves to a term strictly above anything
        # any voter has seen, so a stale primary can never be confused
        # with the current one.
        self._log_epoch = 1

        registry = obs.registry()
        self._trace = registry.trace
        self._obs_unacked = registry.gauge("sender.unacked", node=addr_token)
        self._obs_released = registry.gauge("sender.released_up_to", node=addr_token)
        self.stats = obs.stat_counters(
            "sender",
            {
                "data_sent": 0,
                "heartbeats_sent": 0,
                "remulticasts": 0,
                "unicast_retransmits": 0,
                "log_acks": 0,
                "log_backfills": 0,
                "failovers": 0,
            },
            node=addr_token,
        )

    # -- introspection ----------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the most recent data packet (0 = none yet)."""
        return self._seq

    @property
    def primary(self) -> Address | None:
        """Current primary logging server (changes after failover)."""
        return self._primary

    @property
    def unacked(self) -> int:
        """Data packets retained awaiting a log acknowledgement."""
        return len(self._unacked)

    @property
    def released_up_to(self) -> int:
        """Highest sequence the source has safely discarded through."""
        return self._released_up_to

    @property
    def statack(self) -> StatAckSource | None:
        return self._statack

    @property
    def failover_phase(self) -> FailoverPhase:
        return self._failover

    @property
    def log_epoch(self) -> int:
        """Promotion term of the primary this source currently trusts."""
        return self._log_epoch

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Arm initial timers (statack bootstrap, primary liveness)."""
        actions: list[Action] = []
        if self._statack is not None:
            actions.extend(self._statack.start(now))
        if self._primary is not None:
            self.timers.set(("primary_check",), now + self._config.replication.primary_timeout)
        return actions

    def send(self, payload: bytes, now: float) -> list[Action]:
        """Multicast ``payload`` as the next data packet."""
        self._seq += 1
        self._hb_index = 0
        self._last_payload = payload
        epoch = self._statack.current_epoch if self._statack else 0
        packet = DataPacket(group=self._group, seq=self._seq, payload=payload, epoch=epoch)
        # "the source must retain the data until it has received a
        # positive acknowledgement from the logging server" (§2).
        if self._primary is not None:
            self._unacked[self._seq] = payload
            self._unacked_sent_at[self._seq] = now
        if self._statack is not None:
            self._recent[self._seq] = payload
            while len(self._recent) > self._recent_cap:
                self._recent.popitem(last=False)
        hb_at = self._schedule.on_data(now)
        if hb_at is not None:
            self.timers.set(("heartbeat",), hb_at)
        if self._statack is not None:
            self._statack.on_data_sent(self._seq, now)
        if self._rchan is not None:
            self._rchan.on_data_sent(self._seq, payload, epoch, now)
        if self.rate_controller is not None:
            self.rate_controller.note_send(now)
        self.stats["data_sent"] += 1
        self._obs_unacked.set(len(self._unacked))
        self._trace.emit(now, "sender.data", seq=self._seq, epoch=epoch)
        return [SendMulticast(group=self._group, packet=packet)]

    # -- inbound ----------------------------------------------------------

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        if isinstance(packet, LogAckPacket):
            return self._on_log_ack(packet, src, now)
        if isinstance(packet, NackPacket):
            return self._on_primary_nack(packet, src, now)
        if isinstance(packet, PrimaryQueryPacket):
            info = PrimaryInfoPacket(group=self._group, primary_addr=self._primary_token())
            return [SendUnicast(dest=src, packet=info)]
        if isinstance(packet, ReplAckPacket):
            return self._on_repl_ack(packet, src, now)
        if self._statack is not None:
            return self._statack.handle(packet, src, now)
        return []

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            kind = key[0]
            if kind == "heartbeat":
                actions.extend(self._send_heartbeat(now))
            elif kind == "primary_check":
                actions.extend(self._check_primary(now))
            elif kind == "failover_votes":
                actions.extend(self._conclude_failover_vote(now))
            elif kind == "handover_retry":
                actions.extend(self._push_handover(now))
        if self._statack is not None:
            sa_actions, orders = self._statack.poll(now)
            actions.extend(sa_actions)
            for order in orders:
                actions.extend(self._fulfil(order, now))
        if self._rchan is not None:
            actions.extend(self._rchan.poll(now))
        return actions

    def next_wakeup(self) -> float | None:
        deadlines = [self.timers.next_deadline()]
        if self._statack is not None:
            deadlines.append(self._statack.next_wakeup())
        if self._rchan is not None:
            deadlines.append(self._rchan.next_wakeup())
        live = [d for d in deadlines if d is not None]
        return min(live) if live else None

    # -- heartbeats ----------------------------------------------------------

    def _send_heartbeat(self, now: float) -> list[Action]:
        self._hb_index += 1
        epoch = self._statack.current_epoch if self._statack else 0
        hb_at = self._schedule.on_heartbeat(now)
        if hb_at is not None:
            self.timers.set(("heartbeat",), hb_at)
        # §7 extension: repeat a small last packet in the heartbeat slot
        # so an isolated loss of it repairs itself without any NACK.
        repeat_max = self._config.heartbeat.repeat_payload_max
        if repeat_max and self._seq > 0:
            payload = self._last_payload
            if payload is not None and len(payload) <= repeat_max:
                self.stats["data_repeats_sent"] = self.stats.get("data_repeats_sent", 0) + 1
                self._trace.emit(now, "sender.data_repeat", seq=self._seq)
                repeat = DataPacket(group=self._group, seq=self._seq, payload=payload, epoch=epoch)
                return [SendMulticast(group=self._group, packet=repeat)]
        packet = HeartbeatPacket(group=self._group, seq=self._seq, hb_index=self._hb_index, epoch=epoch)
        self.stats["heartbeats_sent"] += 1
        self._trace.emit(now, "sender.heartbeat", seq=self._seq, hb_index=self._hb_index)
        return [SendMulticast(group=self._group, packet=packet)]

    # -- log acknowledgement & buffer release ---------------------------------

    def _on_log_ack(self, packet: LogAckPacket, src: Address, now: float) -> list[Action]:
        if src != self._primary:
            return []  # stale ACK from a demoted primary
        if packet.log_epoch and packet.log_epoch != self._log_epoch:
            return []  # ACK from a term the source is not in (epoch 0 = legacy)
        self.stats["log_acks"] += 1
        self.timers.set(("primary_check",), now + self._config.replication.primary_timeout)
        if self._failover is not FailoverPhase.HEALTHY:
            self._failover = FailoverPhase.HEALTHY
        # Discard only what a replica also holds (§2.2.3); without
        # replicas the primary's own ACK is the release point.
        release = packet.replica_seq if self._replicas else packet.primary_seq
        return self._release(release)

    def _on_primary_nack(self, packet: NackPacket, src: Address, now: float) -> list[Action]:
        """Backfill the primary log's own multicast losses (§2.2.3).

        The source is the primary's upstream: the reliability buffer
        holds exactly the packets the log has not acknowledged yet, so a
        NACK from the log the source currently trusts is served from
        there (or from the short-horizon cache for anything already
        released).  Without this path a primary that misses a multicast
        packet could never complete its log, wedging the release point
        and every secondary's upstream recovery with it.
        """
        if src != self._primary:
            return []  # only the log the source trusts may tap the buffer
        epoch = self._statack.current_epoch if self._statack else 0
        actions: list[Action] = []
        for seq in packet.seqs:
            payload = self._payload_for(seq)
            if payload is None:
                continue
            self.stats["log_backfills"] += 1
            self._trace.emit(now, "sender.log_backfill", seq=seq)
            retrans = RetransPacket(group=self._group, seq=seq, payload=payload, epoch=epoch)
            actions.append(SendUnicast(dest=src, packet=retrans))
        return actions

    def _release(self, up_to: int) -> list[Action]:
        if up_to <= self._released_up_to:
            return []
        for seq in [s for s in self._unacked if s <= up_to]:
            del self._unacked[seq]
            self._unacked_sent_at.pop(seq, None)
        self._released_up_to = up_to
        self._obs_unacked.set(len(self._unacked))
        self._obs_released.set(up_to)
        return [Notify(SourceBufferReleased(seq=up_to))]

    # -- statistical-acknowledgement fulfilment --------------------------------

    def _fulfil(self, order, now: float) -> list[Action]:
        payload = self._payload_for(order.seq)
        if payload is None:
            return []  # already released and re-multicast is moot
        if order.decision is RetransmitDecision.MULTICAST:
            attempts = self._remulticast_attempts.get(order.seq, 1) + 1
            self._remulticast_attempts[order.seq] = attempts
            packet = RetransPacket(group=self._group, seq=order.seq, payload=payload, epoch=order.epoch)
            assert self._statack is not None
            self._statack.on_remulticast_sent(order.seq, now, attempts)
            self.stats["remulticasts"] += 1
            self._trace.emit(now, "sender.remulticast", seq=order.seq, attempts=attempts)
            return [
                SendMulticast(group=self._group, packet=packet),
                Notify(Remulticast(seq=order.seq, reason="missing statistical ACKs")),
            ]
        if order.decision is RetransmitDecision.UNICAST:
            packet = RetransPacket(group=self._group, seq=order.seq, payload=payload, epoch=order.epoch)
            self.stats["unicast_retransmits"] += len(order.missing_ackers)
            self._trace.emit(
                now, "sender.unicast_retransmit", seq=order.seq, targets=len(order.missing_ackers)
            )
            return [SendUnicast(dest=acker, packet=packet) for acker in order.missing_ackers]
        return []

    def _payload_for(self, seq: int) -> bytes | None:
        payload = self._unacked.get(seq)
        if payload is not None:
            return payload
        return self._recent.get(seq)

    # -- primary failover (§2.2.3) ---------------------------------------------

    def _check_primary(self, now: float) -> list[Action]:
        timeout = self._config.replication.primary_timeout
        self.timers.set(("primary_check",), now + timeout)
        if self._failover is not FailoverPhase.HEALTHY or not self._unacked:
            return []
        oldest = next(iter(self._unacked))
        if now - self._unacked_sent_at.get(oldest, now) < timeout:
            return []
        if not self._replicas:
            return []  # nothing to fail over to; keep retaining data
        # Primary is unresponsive with data outstanding: poll the replicas.
        self._failover = FailoverPhase.QUERYING
        self._failover_votes = {}
        self.timers.set(("failover_votes",), now + self._config.replication.failover_wait)
        query = ReplStatusQueryPacket(group=self._group)
        return [SendUnicast(dest=replica, packet=query) for replica in self._replicas]

    def _on_repl_ack(self, packet: ReplAckPacket, src: Address, now: float) -> list[Action]:
        cum = None if packet.cum_seq == _NO_SEQ else packet.cum_seq
        if self._failover is FailoverPhase.QUERYING and src in self._replicas:
            self._failover_votes[src] = (
                -1 if cum is None else cum,
                packet.commit_seq,
                packet.log_epoch,
            )
            return []
        if self._failover is FailoverPhase.HANDOVER and src == self._handover_target:
            if packet.log_epoch and packet.log_epoch < self._log_epoch:
                return []  # an answer from before the promotion reached it
            return self._advance_handover(cum or 0, now)
        return []

    def _conclude_failover_vote(self, now: float) -> list[Action]:
        if self._failover is not FailoverPhase.QUERYING:
            return []
        if not self._failover_votes:
            # No replica answered; retry the whole check later.
            self._failover = FailoverPhase.HEALTHY
            return []
        # "locates the logging server replica holding the most up-to-date
        # packets — that is, the replica associated with the most recent
        # replicated logger sequence number."  Rank by cumulative prefix,
        # then by committed prefix, and break exact ties by the lowest
        # node token so promotion is deterministic on every engine (and
        # over UDP) regardless of the order the votes arrived in.
        votes = self._failover_votes
        best = min(
            votes,
            key=lambda a: (-votes[a][0], -votes[a][1], self._format_token(a)),
        )
        best_cum = max(votes[best][0], 0)
        # The new term is strictly above anything any voter has seen, so
        # a revived pre-failover primary can never pass the epoch gates.
        self._log_epoch = max(self._log_epoch, *(v[2] for v in votes.values())) + 1
        old_primary = self._primary
        self._primary = best
        self._replicas = tuple(r for r in self._replicas if r != best)
        self._failover = FailoverPhase.HANDOVER
        self._handover_target = best
        self._handover_pending = [s for s in self._unacked if s > best_cum]
        self.stats["failovers"] += 1
        self._trace.emit(
            now, "sender.failover", new_primary=str(best),
            resend=len(self._handover_pending), log_epoch=self._log_epoch,
        )
        promote = PromotePacket(
            group=self._group,
            from_seq=best_cum + 1,
            log_epoch=self._log_epoch,
            members=",".join(self._format_token(r) for r in self._replicas),
        )
        actions: list[Action] = [
            SendUnicast(dest=best, packet=promote),
            Notify(
                PrimaryFailover(
                    old_primary=old_primary,
                    new_primary=best,
                    resent_packets=len(self._handover_pending),
                    log_epoch=self._log_epoch,
                    high_seq=self._seq,
                )
            ),
        ]
        actions.extend(self._push_handover(now))
        return actions

    def _push_handover(self, now: float) -> list[Action]:
        """Reliably transmit the buffered tail to the promoted replica."""
        if self._failover is not FailoverPhase.HANDOVER or self._handover_target is None:
            return []
        if not self._handover_pending:
            self._failover = FailoverPhase.HEALTHY
            self._handover_target = None
            return []
        self.timers.set(("handover_retry",), now + self._config.replication.update_retry)
        actions: list[Action] = []
        for seq in self._handover_pending:
            payload = self._unacked.get(seq)
            if payload is None:
                continue
            update = ReplUpdatePacket(
                group=self._group,
                seq=seq,
                payload=payload,
                log_epoch=self._log_epoch,
                commit_seq=self._released_up_to,
            )
            actions.append(SendUnicast(dest=self._handover_target, packet=update))
        return actions

    def _advance_handover(self, cum: int, now: float) -> list[Action]:
        self._handover_pending = [s for s in self._handover_pending if s > cum]
        actions = self._release(cum) if not self._replicas else []
        if not self._handover_pending:
            self._failover = FailoverPhase.HEALTHY
            self._handover_target = None
            self.timers.cancel(("handover_retry",))
        return actions

    def _primary_token(self) -> str:
        return self._format_token(self._primary) if self._primary is not None else self._addr_token
