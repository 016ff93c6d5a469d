"""Logging servers — the heart of LBRM (§2, §2.2).

One class, :class:`LogServer`, plays all three roles the paper
describes, reflecting "the recursive nature of the distributed logging
architecture" the authors credit for their code reuse (§3):

* **PRIMARY** — subscribes to the source's multicast group, logs every
  packet, acknowledges the source (LOG_ACK carrying both the primary and
  replicated sequence numbers), and pushes updates to replicas.
* **SECONDARY** — a site-local logger: logs off the multicast group,
  serves its site's retransmission requests, calls back to its parent
  (the primary, or a higher secondary in a multi-level hierarchy) for
  packets it lost itself, volunteers as a Designated Acker, and answers
  probes and discovery queries.
* **REPLICA** — a passive copy fed by the primary's REPL_UPDATE stream,
  promotable to PRIMARY on failover (§2.2.3).

A secondary decides between unicast repairs and one site-scoped (TTL
bound) re-multicast based on how many distinct local receivers asked and
on whether it lost the packet itself (§2.2.1).
"""

from __future__ import annotations

import random
from enum import Enum

from repro import obs
from repro.core.actions import Action, Address, JoinGroup, Notify, SendMulticast, SendUnicast
from repro.core.actions import own_token
from repro.core.config import LbrmConfig
from repro.core.events import DesignatedAcker, PromotedToPrimary, Remulticast
from repro.core.log_store import PacketLog
from repro.core.machine import ProtocolMachine, TimerSet
from repro.core.packets import (
    AckerResponsePacket,
    AckerSelectPacket,
    DataAckPacket,
    DataPacket,
    DiscoveryQueryPacket,
    DiscoveryReplyPacket,
    HeartbeatPacket,
    LogAckPacket,
    NackPacket,
    Packet,
    PrimaryInfoPacket,
    PrimaryQueryPacket,
    ProbePacket,
    ProbeReplyPacket,
    PromotePacket,
    ReplAckPacket,
    ReplStatusQueryPacket,
    ReplUpdatePacket,
    RetransPacket,
)
from repro.core.replication import ReplicationManager
from repro.core.retransmit import SiteRequestTracker
from repro.core.sequence import SequenceTracker

__all__ = ["LoggerRole", "LogServer"]

_NO_SEQ = 2**64 - 1  # ReplAck sentinel for "nothing held yet"


class LoggerRole(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"
    REPLICA = "replica"


class LogServer(ProtocolMachine):
    """A logging server for one LBRM group.

    Parameters
    ----------
    group:
        Multicast group whose traffic this server logs.
    addr_token:
        Stable string naming this server on the wire (discovery replies).
    role:
        Initial role; a REPLICA may later be promoted.
    parent:
        Upstream logger to fetch missing packets from (secondaries only;
        the primary has none).
    source:
        The source's address — the primary sends LOG_ACKs there.
    replicas:
        Replica addresses (primary only).
    level:
        Hierarchy depth advertised in discovery replies (0 = primary).
    site_scoped_repairs:
        When True (the default), a secondary may answer a pile of
        requests for one sequence with a single TTL-scoped re-multicast
        (§2.2.1) — correct when its requesters share its site LAN.
        Interior hubs in a k-level tree (DESIGN §11) serve *remote*
        site loggers, which a site-scoped multicast can never reach;
        they are built with False and always unicast repairs.
    parse_token:
        Converts a wire address token back into an :class:`Address`
        (used for the membership list a PROMOTE packet carries).  The
        simulator's addresses are their own tokens, so the default is
        the identity; asyncio harnesses pass
        :func:`repro.aio.node.parse_token`.
    rng:
        Volunteer coins (anything with ``random()``), drawn only by a
        SECONDARY.  The default is one fixed stream: every server built
        without an ``rng`` flips the same coins.
    """

    def __init__(
        self,
        group: str,
        addr_token: str,
        config: LbrmConfig | None = None,
        *,
        role: LoggerRole = LoggerRole.SECONDARY,
        parent: Address | None = None,
        source: Address | None = None,
        replicas: tuple[Address, ...] = (),
        level: int = 1,
        site_scoped_repairs: bool = True,
        rng: random.Random | None = None,
        spool_path: str | None = None,
        parse_token=own_token,
    ) -> None:
        self._group = group
        self._addr_token = addr_token
        self._config = config or LbrmConfig()
        self._role = role
        self._parent = parent
        self._source = source
        self._level = level
        self._parse_token = parse_token
        # Deterministic default (str seeds hash stably): volunteer coins
        # and jitter repeat identically run to run.
        self._rng = rng or random.Random("repro.core.logger")

        log_cfg = self._config.logger
        # Config is frozen; these are re-read once per served NACK, so
        # the two-attribute hops are baked into locals up front.
        self._lifetime = log_cfg.packet_lifetime
        self._is_secondary = role is LoggerRole.SECONDARY
        # Site-scoped re-multicast is only ever a win when the server's
        # requesters sit on its own LAN (see the class docstring).
        self._serve_local = self._is_secondary and site_scoped_repairs
        self._init_durable(spool_path)
        super().__init__()  # builds the volatile state (_init_volatile)

        self._replication: ReplicationManager | None = None
        if role is LoggerRole.PRIMARY:
            self._replication = ReplicationManager(
                group, replicas, self._config.replication, epoch=self._log_epoch
            )

        registry = obs.registry()
        self._trace = registry.trace
        # The log's size gauges, built only under a recording registry:
        # an unrecorded append pays one test, not two null calls.
        self._log_gauges = None
        if registry.enabled:
            self._log_gauges = (
                registry.gauge("logger.log_packets", node=addr_token),
                registry.gauge("logger.log_bytes", node=addr_token),
            )
        self.stats = obs.stat_counters(
            "logger",
            {
                "logged": 0,
                "nacks_received": 0,
                "retrans_unicast": 0,
                "retrans_multicast": 0,
                "upstream_nacks": 0,
                "log_misses": 0,
                "acks_sent": 0,
                "discovery_replies": 0,
                "probe_replies": 0,
            },
            node=addr_token,
        )

    def _init_durable(self, spool_path: str | None = None) -> None:
        """Build what a crash keeps (DESIGN §7): the log spools to disk
        (§2.2), and with it the tracker, epoch and commit point.
        :meth:`wipe_restart` calls this again: a lost disk."""
        log_cfg = self._config.logger
        self.log = PacketLog(
            max_packets=log_cfg.max_packets,
            lifetime=log_cfg.packet_lifetime,
            spool_path=spool_path,
        )
        # The log's in-memory slots, read directly on the NACK service
        # path (PacketLog mutates this dict in place, never rebinds).
        self._log_slots = self.log._slots
        self.tracker = SequenceTracker()
        if self._role is LoggerRole.REPLICA:
            # The replication stream covers the whole log from seq 1: a
            # replica observing seq k first genuinely misses 1..k-1.
            self.tracker.expect_from(1)
        # Promotion term (DESIGN.md §10): the configured primary starts at
        # 1; replicas learn it from the pushes they ack and from PROMOTE.
        self._log_epoch = 1 if self._role is LoggerRole.PRIMARY else 0
        # Highest commit point *learned* from REPL_UPDATE pushes; the own
        # committed prefix is capped by what is held (_commit_for_ack).
        self._commit_learned = 0

    def _init_volatile(self) -> None:
        """Build what a crash loses: repair bookkeeping and timers (the
        next NACK that misses the log re-makes a fetch)."""
        self.timers = TimerSet()
        self._site_requests = SiteRequestTracker(self._config.logger)
        self._pending: dict[int, set[Address]] = {}  # seq -> requesters waiting on it
        self._upstream_retries: dict[int, int] = {}  # seq -> re-requests so far
        self._self_lost: set[int] = set()  # seqs this server fetched upstream
        self._acking_epochs: set[int] = set()  # epochs it volunteered to ack

    # -- introspection ----------------------------------------------------

    @property
    def role(self) -> LoggerRole:
        return self._role

    @property
    def addr_token(self) -> str:
        return self._addr_token

    @property
    def primary_seq(self) -> int:
        """Highest contiguous sequence this server holds (0 = none)."""
        if not self.tracker.started:
            return 0
        missing = self.tracker.missing
        if not missing:
            return self.tracker.highest
        return min(missing) - 1

    @property
    def upstream_outstanding(self) -> int:
        """Holes in this server's own log still being fetched upstream."""
        return len(self._upstream_retries)

    @property
    def replication(self) -> ReplicationManager | None:
        return self._replication

    @property
    def log_epoch(self) -> int:
        """Highest promotion term this server has seen (0 = none yet)."""
        return self._log_epoch

    def _commit_for_ack(self) -> int:
        commit = self._commit_learned
        held = self.primary_seq
        return commit if commit < held else held

    def set_source(self, source: Address) -> None:
        """Install the source address (needed when ports are dynamic)."""
        self._source = source

    def set_parent(self, parent: Address) -> None:
        """Install the upstream logger address (secondaries)."""
        self._parent = parent

    # -- lifecycle ----------------------------------------------------------

    def start(self, now: float) -> list[Action]:
        """Subscribe to the group (replicas are fed by unicast instead)."""
        if self._config.logger.packet_lifetime:
            # Periodic housekeeping bounds memory even on idle servers;
            # half the lifetime keeps staleness overshoot below 50%.
            self.timers.set(("expire",), now + self._config.logger.packet_lifetime / 2)
        if self._role is LoggerRole.REPLICA:
            return []
        return [JoinGroup(group=self._group)]

    # -- inbound ----------------------------------------------------------

    # Exact-type dispatch: packets are final frozen dataclasses, so one
    # dict probe replaces the isinstance ladder on the per-packet hot
    # path.  The table maps to method *names*, resolved per call, so
    # class-level monkeypatching — the chaos campaign's
    # unresponsive-logger fault swaps _on_nack — keeps working.
    _HANDLER_NAMES = {
        DataPacket: "_on_data_packet",
        RetransPacket: "_on_data_packet",
        HeartbeatPacket: "_on_heartbeat",
        NackPacket: "_on_nack",
        AckerSelectPacket: "_on_acker_select",
        ProbePacket: "_on_probe",
        DiscoveryQueryPacket: "_on_discovery",
        ReplUpdatePacket: "_on_repl_update",
        ReplAckPacket: "_on_repl_ack",
        ReplStatusQueryPacket: "_on_repl_status",
        PromotePacket: "_on_promote",
        PrimaryInfoPacket: "_on_primary_info",
    }

    def handle(self, packet: Packet, src: Address, now: float) -> list[Action]:
        # The three packet types a busy logger actually fields get
        # identity checks ahead of the dict probe; ``self._on_*`` calls
        # still honour class-level monkeypatching.
        t = type(packet)
        if t is NackPacket:
            return self._on_nack(packet, src, now)
        if t is DataPacket:
            return self._on_data(packet.seq, packet.payload, packet.epoch, src, now)
        if t is HeartbeatPacket:
            return self._on_heartbeat(packet, src, now)
        name = self._HANDLER_NAMES.get(t)
        if name is not None:
            return getattr(self, name)(packet, src, now)
        return []

    def _on_data_packet(self, packet, src: Address, now: float) -> list[Action]:
        return self._on_data(packet.seq, packet.payload, packet.epoch, src, now)

    # -- logging the stream ----------------------------------------------------

    def _on_data(self, seq: int, payload: bytes, epoch: int, src: Address, now: float) -> list[Action]:
        actions: list[Action] = []
        report = self.tracker.observe_data(seq)
        if self.log.append(seq, payload, now):
            self.stats["logged"] += 1
            if self._log_gauges is not None:
                self._push_log_gauges()
            if self._replication is not None:
                actions.extend(self._replication.replicate(seq, payload, now))
        # The logger itself recovers its own losses from upstream so the
        # site's receivers can always be served locally (§2.2.1).
        if report.new_gaps:
            actions.extend(self._request_upstream(report.new_gaps, now))
        if report.filled_gap:
            self._upstream_retries.pop(seq, None)
            self.timers.cancel(("upstream", seq))
        # Serve receivers that asked before we had the packet.
        if self._pending:
            actions.extend(self._serve_pending(seq, payload, now))
        if self._role is LoggerRole.PRIMARY:
            actions.extend(self._ack_source(now))
        if epoch in self._acking_epochs and self._source is not None:
            self.stats["acks_sent"] += 1
            ack = DataAckPacket(group=self._group, epoch=epoch, seq=seq)
            actions.append(SendUnicast(dest=self._source, packet=ack))
        return actions

    def _on_heartbeat(self, packet: HeartbeatPacket, src: Address, now: float) -> list[Action]:
        report = self.tracker.observe_heartbeat(packet.seq)
        return self._request_upstream(report.new_gaps, now) if report.new_gaps else []

    def _ack_source(self, now: float) -> list[Action]:
        if self._source is None:
            return []
        replica_seq = self.primary_seq
        if self._replication is not None and self._replication.members:
            replica_seq = self._replication.commit_seq
        ack = LogAckPacket(
            group=self._group,
            primary_seq=self.primary_seq,
            replica_seq=replica_seq,
            log_epoch=self._log_epoch,
        )
        return [SendUnicast(dest=self._source, packet=ack)]

    # -- serving retransmission requests -----------------------------------

    def _on_nack(self, packet: NackPacket, src: Address, now: float) -> list[Action]:
        self.stats["nacks_received"] += 1
        if self._lifetime:
            # Age out entries first so the membership test below is
            # accurate (an entry must not expire between the check and
            # the retrieval).
            self.log.expire(now)
        seqs = packet.seqs
        if len(seqs) == 1:
            # The dominant request shape — a receiver chasing a single
            # gap.  Serving it without the accumulator lists keeps the
            # saturation path allocation-free.  The in-memory slot is
            # probed directly; _repair_of still covers the spool.
            seq = seqs[0]
            retrans = self._log_slots.get(seq)
            if type(retrans) is not RetransPacket:
                retrans = self._repair_of(seq, retrans)
            if retrans is not None:
                return self._repair(seq, retrans, src, now)
            self.stats["log_misses"] += 1
            self._pending.setdefault(seq, set()).add(src)
            return self._request_upstream(seqs, now)
        actions: list[Action] = []
        upstream_needed: list[int] = []
        slots = self._log_slots
        for seq in seqs:
            retrans = slots.get(seq)
            if type(retrans) is not RetransPacket:
                retrans = self._repair_of(seq, retrans)
            if retrans is not None:
                actions.extend(self._repair(seq, retrans, src, now))
            else:
                self.stats["log_misses"] += 1
                self._pending.setdefault(seq, set()).add(src)
                upstream_needed.append(seq)
        if upstream_needed:
            actions.extend(self._request_upstream(tuple(upstream_needed), now))
        return actions

    def _repair_of(self, seq: int, payload: bytes | None) -> RetransPacket | None:
        """The repair for ``seq``, whose in-memory slot holds ``payload``
        (None: not in memory).  Popular packets (a site-wide loss) are
        requested many times; RetransPacket is frozen, so the first NACK
        puts one in the slot to serve every requester, and it goes with
        the entry.  A spooled entry's repair is made afresh each time."""
        if payload is None:
            payload = self.log.peek(seq)
            if payload is None:
                return None
            return RetransPacket(group=self._group, seq=seq, payload=payload)
        retrans = self._log_slots[seq] = RetransPacket(group=self._group, seq=seq, payload=payload)
        return retrans

    def _repair(self, seq: int, retrans: RetransPacket, requester: Address, now: float) -> list[Action]:
        # The TTL-scoped re-multicast only helps a SECONDARY repairing its
        # own site; a primary's requesters are on other sites, beyond any
        # site-local scope, so it always unicasts (group-wide re-multicast
        # is the source's statistical-ack decision, §2.3.2).
        multicast_now = self._serve_local and self._site_requests.record(
            seq, requester, now, bool(self._self_lost) and seq in self._self_lost
        )
        if multicast_now:
            # Enough of the site lost it: one TTL-scoped re-multicast
            # replaces a pile of unicasts (§2.2.1).
            self.stats["retrans_multicast"] += 1
            self._trace.emit(now, "logger.remulticast", seq=seq, reason="site-wide loss")
            return [
                SendMulticast(group=self._group, packet=retrans, ttl=self._config.logger.site_ttl),
                Notify(Remulticast(seq=seq, reason="site-wide loss")),
            ]
        self.stats["retrans_unicast"] += 1
        return [SendUnicast(dest=requester, packet=retrans)]

    def _serve_pending(self, seq: int, payload: bytes, now: float) -> list[Action]:
        waiting = self._pending.pop(seq, None)
        if not waiting:
            return []
        actions: list[Action] = []
        retrans = RetransPacket(group=self._group, seq=seq, payload=payload)
        if self._serve_local and (
            len(waiting) >= self._config.logger.remulticast_threshold or seq in self._self_lost
        ):
            self.stats["retrans_multicast"] += 1
            self._trace.emit(now, "logger.remulticast", seq=seq, reason="queued site requests")
            actions.append(
                SendMulticast(group=self._group, packet=retrans, ttl=self._config.logger.site_ttl)
            )
            actions.append(Notify(Remulticast(seq=seq, reason="queued site requests")))
        else:
            for requester in waiting:
                self.stats["retrans_unicast"] += 1
                actions.append(SendUnicast(dest=requester, packet=retrans))
        return actions

    def _request_upstream(self, gaps: tuple[int, ...], now: float) -> list[Action]:
        if self._parent is None:
            return []
        fresh = [s for s in gaps if s not in self._upstream_retries]
        if not fresh:
            return []
        self._self_lost.update(fresh)
        for seq in fresh:
            # 0 = initial request sent; only re-requests count as retries.
            self._upstream_retries[seq] = 0
            self.timers.set(("upstream", seq), now + self._config.logger.upstream_retry)
        fresh.sort()
        actions: list[Action] = []
        # Every fresh gap is requested now, MAX_SEQS to a NACK, the way
        # LbrmReceiver._fire_nacks batches: a gap left out would wait a
        # whole upstream_retry for a "retry" of a request never made.
        for start in range(0, len(fresh), NackPacket.MAX_SEQS):
            chunk = tuple(fresh[start : start + NackPacket.MAX_SEQS])
            self.stats["upstream_nacks"] += 1
            actions.append(
                SendUnicast(dest=self._parent, packet=NackPacket(group=self._group, seqs=chunk))
            )
        return actions

    # -- statistical acknowledgement participation ---------------------------

    def _on_acker_select(self, packet: AckerSelectPacket, src: Address, now: float) -> list[Action]:
        if self._role is not LoggerRole.SECONDARY:
            return []
        if self._rng.random() >= packet.p_ack:
            return []
        self._acking_epochs.add(packet.epoch)
        # Keep only a few recent epochs; selection packets are frequent.
        if len(self._acking_epochs) > 8:
            self._acking_epochs = set(sorted(self._acking_epochs)[-8:])
        response = AckerResponsePacket(group=self._group, epoch=packet.epoch)
        return [
            SendUnicast(dest=src, packet=response),
            Notify(DesignatedAcker(epoch=packet.epoch)),
        ]

    def _on_probe(self, packet: ProbePacket, src: Address, now: float) -> list[Action]:
        if self._role is not LoggerRole.SECONDARY:
            return []
        if self._rng.random() >= packet.p_ack:
            return []
        self.stats["probe_replies"] += 1
        return [SendUnicast(dest=src, packet=ProbeReplyPacket(group=self._group, probe_id=packet.probe_id))]

    # -- discovery ----------------------------------------------------------

    def _on_discovery(self, packet: DiscoveryQueryPacket, src: Address, now: float) -> list[Action]:
        if self._role is LoggerRole.REPLICA:
            return []
        self.stats["discovery_replies"] += 1
        reply = DiscoveryReplyPacket(group=self._group, logger_addr=self._addr_token, level=self._level)
        return [SendUnicast(dest=src, packet=reply)]

    # -- replication (replica side + primary ACK intake) ----------------------

    def _on_repl_update(self, packet: ReplUpdatePacket, src: Address, now: float) -> list[Action]:
        if self._role is LoggerRole.SECONDARY:
            return []
        # Epoch gate (DESIGN.md §10): a push from a stale term — a
        # restarted pre-failover primary, or one delayed in flight across
        # a promotion — must neither enter the log bookkeeping as fresh
        # replication nor be acknowledged (an ack would let the stale
        # primary keep "committing" in a term the group has left).
        if packet.log_epoch and packet.log_epoch < self._log_epoch:
            return []
        if packet.log_epoch > self._log_epoch:
            self._log_epoch = packet.log_epoch
        if packet.commit_seq > self._commit_learned:
            self._commit_learned = packet.commit_seq
        self.tracker.observe_data(packet.seq)
        if self.log.append(packet.seq, packet.payload, now):
            self.stats["logged"] += 1
            if self._log_gauges is not None:
                self._push_log_gauges()
        actions: list[Action] = [SendUnicast(dest=src, packet=self._repl_ack())]
        if self._role is LoggerRole.PRIMARY:
            # Promoted primary receiving the source's handover also keeps
            # the source's buffer-release machinery moving.
            actions.extend(self._serve_pending(packet.seq, packet.payload, now))
            actions.extend(self._ack_source(now))
        return actions

    def _on_repl_ack(self, packet: ReplAckPacket, src: Address, now: float) -> list[Action]:
        if self._replication is None:
            return []
        cum = 0 if packet.cum_seq == _NO_SEQ else packet.cum_seq
        # A cumulative ACK below the recorded watermark means the
        # follower restarted with an empty log; reset its state so the
        # backfill below re-replicates the vanished prefix.
        self._replication.note_regression(src, cum, now, epoch=packet.log_epoch)
        grew = self._replication.on_ack(src, cum, now, epoch=packet.log_epoch)
        actions: list[Action] = []
        # Catch-up path: a follower behind the log's own prefix (freshly
        # adopted after a promotion, or one whose updates were dropped
        # after the retry budget) is backfilled from the log, paced one
        # batch per acknowledgement.
        for seq in self._replication.missing_for(src, self.primary_seq):
            payload = self.log.peek(seq)
            if payload is None:
                continue
            actions.extend(self._replication.replicate_to(src, seq, payload, now))
        if grew:
            actions.extend(self._ack_source(now))
        return actions

    def _on_repl_status(self, packet: ReplStatusQueryPacket, src: Address, now: float) -> list[Action]:
        return [SendUnicast(dest=src, packet=self._repl_ack())]

    def _repl_ack(self) -> ReplAckPacket:
        return ReplAckPacket(
            group=self._group,
            cum_seq=self._cum_seq(),
            log_epoch=self._log_epoch,
            commit_seq=self._commit_for_ack(),
        )

    def _on_promote(self, packet: PromotePacket, src: Address, now: float) -> list[Action]:
        if self._role is not LoggerRole.REPLICA:
            return []
        if packet.log_epoch and packet.log_epoch <= self._log_epoch:
            return []  # stale promotion (a term this replica already left)
        self._role = LoggerRole.PRIMARY
        self._is_secondary = False
        self._source = src
        # The source becomes the new primary's upstream: any gap in the
        # promoted log is backfilled from the reliability buffer.
        self._parent = src
        self._level = 0
        self._log_epoch = packet.log_epoch if packet.log_epoch else self._log_epoch + 1
        members = tuple(
            self._parse_token(token) for token in packet.members.split(",") if token
        )
        self._trace.emit(
            now, "logger.promoted", node=self._addr_token,
            from_seq=packet.from_seq, log_epoch=self._log_epoch,
        )
        self._replication = ReplicationManager(
            self._group, (), self._config.replication, epoch=self._log_epoch
        )
        actions: list[Action] = [
            JoinGroup(group=self._group),
            Notify(PromotedToPrimary(from_seq=packet.from_seq, log_epoch=self._log_epoch)),
        ]
        # Adopt the surviving membership and solicit each follower's
        # progress; their answers drive the backfill in _on_repl_ack, so
        # the commit point stays replicated across the failover.
        query = ReplStatusQueryPacket(group=self._group)
        for member in members:
            self._replication.adopt(member, now)
            actions.append(SendUnicast(dest=member, packet=query))
        return actions

    def _on_primary_info(self, packet: PrimaryInfoPacket, src: Address, now: float) -> list[Action]:
        """A new primary the source named becomes the parent, and every
        outstanding upstream request goes to it with a fresh budget."""
        primary = self._parse_token(packet.primary_addr)
        if not self._asked_primary() or primary == self._parent:
            return []  # unasked, or no failover: the requests give up in time
        self._parent = primary
        outstanding = tuple(self._upstream_retries)
        self._upstream_retries.clear()
        return self._request_upstream(outstanding, now)

    def _asked_primary(self) -> bool:
        limit = self._config.logger.max_upstream_retries
        return any(retries > limit for retries in self._upstream_retries.values())

    def _cum_seq(self) -> int:
        cum = self.primary_seq
        return cum if cum > 0 else _NO_SEQ

    # -- fault injection ----------------------------------------------------

    def wipe_restart(self, now: float) -> list[Action]:
        """A crash + :meth:`restart` that loses the durable state too.

        The next acknowledgement reports "nothing held", which lets the
        primary detect the regression
        (:meth:`ReplicationManager.note_regression`), re-adopt it with
        fresh state, and backfill the vanished prefix.
        """
        self._init_durable()
        if self._log_gauges is not None:
            self._push_log_gauges()
        self._trace.emit(now, "logger.wiped", node=self._addr_token)
        return self.restart(now)

    # -- timers ----------------------------------------------------------

    def poll(self, now: float) -> list[Action]:
        actions: list[Action] = []
        for key in self.timers.pop_due(now):
            if key[0] == "upstream":
                actions.extend(self._retry_upstream(key[1], now))
            elif key[0] == "expire":
                self.timers.set(("expire",), now + self._config.logger.packet_lifetime / 2)
        if self._replication is not None:
            actions.extend(self._replication.poll(now))
        self._site_requests.sweep(now)
        if self._lifetime:
            self.log.expire(now)
            if self._log_gauges is not None:
                self._push_log_gauges()
        return actions

    def _push_log_gauges(self) -> None:
        packets, size = self._log_gauges
        packets.set(len(self.log))
        size.set(self.log.byte_size)

    def next_wakeup(self) -> float | None:
        own = self.timers.next_deadline()
        if self._replication is None:
            return own
        repl = self._replication.next_wakeup()
        if own is None:
            return repl
        if repl is None:
            return own
        return min(own, repl)

    def _retry_upstream(self, seq: int, now: float) -> list[Action]:
        if seq in self.log or self._parent is None:
            self._upstream_retries.pop(seq, None)
            return []
        retries = self._upstream_retries.get(seq, 0)
        limit = self._config.logger.max_upstream_retries
        # Out of retries, ask the source who the primary is now, as a
        # receiver does (§2.2.3), and wait one more interval for the answer
        # (one question serves every request waiting on it).
        ask = retries == limit and self._source not in (None, self._parent)
        if retries >= limit and not ask:
            self._upstream_retries.pop(seq, None)
            self._pending.pop(seq, None)
            return []
        asked = ask and self._asked_primary()
        self._upstream_retries[seq] = retries + 1
        self.timers.set(("upstream", seq), now + self._config.logger.upstream_retry)
        if ask:
            return [] if asked else [SendUnicast(dest=self._source, packet=PrimaryQueryPacket(group=self._group))]
        self.stats["upstream_nacks"] += 1
        return [SendUnicast(dest=self._parent, packet=NackPacket(group=self._group, seqs=(seq,)))]
