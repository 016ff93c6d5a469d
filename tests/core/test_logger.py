"""LogServer unit tests for all three roles."""

from __future__ import annotations

import random

import pytest

from repro.core.actions import JoinGroup, Notify, SendMulticast, SendUnicast
from repro.core.config import LbrmConfig, LoggerConfig
from repro.core.events import DesignatedAcker, PromotedToPrimary, Remulticast
from repro.core.logger import LoggerRole, LogServer
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
    ProbePacket,
    ProbeReplyPacket,
    PromotePacket,
    ReplAckPacket,
    ReplStatusQueryPacket,
    ReplUpdatePacket,
    RetransPacket,
)

_NO_SEQ = 2**64 - 1


def unicasts(actions, ptype=None):
    out = [a for a in actions if isinstance(a, SendUnicast)]
    if ptype is not None:
        out = [a for a in out if isinstance(a.packet, ptype)]
    return out


def multicasts(actions, ptype=None):
    out = [a for a in actions if isinstance(a, SendMulticast)]
    if ptype is not None:
        out = [a for a in out if isinstance(a.packet, ptype)]
    return out


def data(seq, payload=b"p"):
    return DataPacket(group="g", seq=seq, payload=payload)


def make_secondary(**kwargs) -> LogServer:
    defaults = dict(role=LoggerRole.SECONDARY, parent="primary", source="source", level=1,
                    config=LbrmConfig())
    defaults.update(kwargs)
    return LogServer("g", addr_token="sec", **defaults)


def make_primary(replicas=()) -> LogServer:
    return LogServer(
        "g", addr_token="prim", config=LbrmConfig(),
        role=LoggerRole.PRIMARY, source="source", replicas=replicas, level=0,
    )


class TestLoggingAndServing:
    def test_data_logged(self):
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        assert 1 in logger.log
        assert logger.stats["logged"] == 1

    def test_nack_served_from_log(self):
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        actions = logger.handle(NackPacket(group="g", seqs=(1,)), "rx1", 0.1)
        replies = unicasts(actions, RetransPacket)
        assert len(replies) == 1
        assert replies[0].dest == "rx1"
        assert replies[0].packet.seq == 1
        assert replies[0].packet.payload == b"p"

    def test_nack_for_unknown_goes_upstream_and_pends(self):
        logger = make_secondary()
        actions = logger.handle(NackPacket(group="g", seqs=(5,)), "rx1", 0.1)
        upstream = unicasts(actions, NackPacket)
        assert upstream and upstream[0].dest == "primary"
        assert upstream[0].packet.seqs == (5,)
        # When the retransmission arrives, the pending requester is served.
        actions = logger.handle(RetransPacket(group="g", seq=5, payload=b"x"), "primary", 0.2)
        replies = unicasts(actions, RetransPacket)
        # self_lost => site-wide re-multicast instead of unicast
        remote = multicasts(actions, RetransPacket)
        assert replies or remote

    def test_own_gap_recovered_from_parent(self):
        """§2.2.1: secondary loggers call back to the primary for losses."""
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        actions = logger.handle(data(3), "source", 0.1)
        upstream = unicasts(actions, NackPacket)
        assert upstream and upstream[0].packet.seqs == (2,)
        assert logger.stats["upstream_nacks"] == 1

    def test_heartbeat_gap_triggers_upstream(self):
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        actions = logger.handle(HeartbeatPacket(group="g", seq=2, hb_index=1), "source", 0.3)
        assert unicasts(actions, NackPacket)

    def test_upstream_retry_until_capped(self):
        cfg = LbrmConfig(logger=LoggerConfig(upstream_retry=0.1, max_upstream_retries=2))
        logger = LogServer("g", addr_token="sec", config=cfg,
                           role=LoggerRole.SECONDARY, parent="primary")
        logger.handle(data(1), "source", 0.0)
        logger.handle(data(3), "source", 0.1)  # initial upstream NACK
        retry1 = logger.poll(0.25)
        assert unicasts(retry1, NackPacket)
        retry2 = logger.poll(0.40)
        assert unicasts(retry2, NackPacket)
        retry3 = logger.poll(0.55)
        assert not unicasts(retry3, NackPacket)  # cap reached

    def test_long_gap_is_requested_whole_in_batches(self):
        """A gap longer than one NACK holds goes upstream at once, in
        ceil(n / MAX_SEQS) NACKs — not 64 now and the rest one by one
        after ``upstream_retry`` (NackPacket: "longer loss runs are
        requested in batches")."""
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        actions = logger.handle(data(152), "source", 0.1)  # holes 2..151
        nacks = unicasts(actions, NackPacket)
        assert [len(a.packet.seqs) for a in nacks] == [64, 64, 22]
        assert all(a.dest == "primary" for a in nacks)
        assert [s for a in nacks for s in a.packet.seqs] == list(range(2, 152))
        assert logger.stats["upstream_nacks"] == 3
        assert logger.upstream_outstanding == 150
        # Nothing has been *re*-requested yet: every retry counter reads 0.
        assert set(logger._upstream_retries.values()) == {0}

    def test_upstream_outstanding_counts_holes_being_fetched(self):
        """What a tree runtime reads as a hub's saturation signal."""
        cfg = LbrmConfig(logger=LoggerConfig(upstream_retry=0.1, max_upstream_retries=1))
        logger = LogServer("g", addr_token="sec", config=cfg,
                           role=LoggerRole.SECONDARY, parent="primary")
        logger.handle(data(1), "source", 0.0)
        assert logger.upstream_outstanding == 0
        logger.handle(data(4), "source", 0.1)  # holes at 2 and 3
        assert logger.upstream_outstanding == 2
        logger.handle(RetransPacket(group="g", seq=2, payload=b"x"), "primary", 0.15)
        assert logger.upstream_outstanding == 1
        logger.poll(0.25)  # the one allowed retry for seq 3
        logger.poll(0.40)  # cap reached: given up, no longer outstanding
        assert logger.upstream_outstanding == 0

    def test_remulticast_after_threshold_requests(self):
        cfg = LbrmConfig(logger=LoggerConfig(remulticast_threshold=3, site_ttl=1))
        logger = LogServer("g", addr_token="sec", config=cfg, role=LoggerRole.SECONDARY)
        logger.handle(data(1), "source", 0.0)
        logger.handle(NackPacket(group="g", seqs=(1,)), "rx1", 0.10)
        logger.handle(NackPacket(group="g", seqs=(1,)), "rx2", 0.11)
        actions = logger.handle(NackPacket(group="g", seqs=(1,)), "rx3", 0.12)
        remote = multicasts(actions, RetransPacket)
        assert len(remote) == 1
        assert remote[0].ttl == 1  # scoped to the site
        assert any(isinstance(a, Notify) and isinstance(a.event, Remulticast) for a in actions)

    def test_retrans_memo_is_bounded_by_the_log(self, tmp_path):
        """A memoised repair must not pin a payload the log's caps let go
        of: 5,000 packets each NACKed once through an 8-entry log."""
        config = LbrmConfig(logger=LoggerConfig(max_packets=8))
        for spool_path in (None, str(tmp_path / "log.spool")):
            logger = make_secondary(config=config, spool_path=spool_path)
            for seq in range(1, 5001):
                logger.handle(data(seq, payload=bytes(1000)), "source", 0.0)
                reply = logger.handle(NackPacket(group="g", seqs=(seq,)), "rx1", 0.0)
                assert unicasts(reply, RetransPacket)[0].packet.seq == seq
            assert len(logger.log._entries) == 8
            assert len(logger._retrans_memo) <= 2 * 8 + 64
            # An entry still in memory keeps its shared repair packet ...
            first = logger.handle(NackPacket(group="g", seqs=(5000,)), "rx2", 0.0)
            again = logger.handle(NackPacket(group="g", seqs=(5000,)), "rx3", 0.0)
            assert first[0].packet is again[0].packet
            if spool_path is not None:
                # ... a spooled one is served, but never memoised.
                spooled = logger.handle(NackPacket(group="g", seqs=(1,)), "rx2", 0.0)
                assert spooled[0].packet.payload == bytes(1000)
                assert 1 not in logger._retrans_memo
            logger.log.close()

    def test_primary_seq_is_contiguous_watermark(self):
        logger = make_secondary()
        logger.handle(data(1), "source", 0.0)
        logger.handle(data(3), "source", 0.1)
        assert logger.primary_seq == 1
        logger.handle(RetransPacket(group="g", seq=2, payload=b"x"), "primary", 0.2)
        assert logger.primary_seq == 3


class TestPrimary:
    def test_acks_source_on_data(self):
        primary = make_primary()
        actions = primary.handle(data(1), "source", 0.0)
        acks = unicasts(actions, LogAckPacket)
        assert acks and acks[0].dest == "source"
        assert acks[0].packet.primary_seq == 1
        assert acks[0].packet.replica_seq == 1  # no replicas: own seq governs

    def test_replicates_to_replicas(self):
        primary = make_primary(replicas=("r0", "r1"))
        actions = primary.handle(data(1), "source", 0.0)
        updates = unicasts(actions, ReplUpdatePacket)
        assert {u.dest for u in updates} == {"r0", "r1"}
        acks = unicasts(actions, LogAckPacket)
        assert acks[0].packet.replica_seq == 0  # nothing replicated yet

    def test_replica_ack_advances_replica_seq(self):
        primary = make_primary(replicas=("r0",))
        primary.handle(data(1), "source", 0.0)
        actions = primary.handle(ReplAckPacket(group="g", cum_seq=1), "r0", 0.1)
        acks = unicasts(actions, LogAckPacket)
        assert acks and acks[0].packet.replica_seq == 1

    def test_replication_retry_on_silence(self):
        primary = make_primary(replicas=("r0",))
        primary.handle(data(1), "source", 0.0)
        actions = primary.poll(1.0)
        retries = unicasts(actions, ReplUpdatePacket)
        assert retries and retries[0].dest == "r0"


class TestReplica:
    def make_replica(self) -> LogServer:
        return LogServer("g", addr_token="r0", config=LbrmConfig(), role=LoggerRole.REPLICA)

    def test_replica_does_not_join_group(self):
        replica = self.make_replica()
        assert replica.start(0.0) == []

    def test_repl_update_acked_cumulatively(self):
        replica = self.make_replica()
        actions = replica.handle(ReplUpdatePacket(group="g", seq=1, payload=b"a"), "prim", 0.0)
        acks = unicasts(actions, ReplAckPacket)
        assert acks[0].packet.cum_seq == 1
        actions = replica.handle(ReplUpdatePacket(group="g", seq=3, payload=b"c"), "prim", 0.1)
        assert unicasts(actions, ReplAckPacket)[0].packet.cum_seq == 1  # gap at 2
        actions = replica.handle(ReplUpdatePacket(group="g", seq=2, payload=b"b"), "prim", 0.2)
        assert unicasts(actions, ReplAckPacket)[0].packet.cum_seq == 3

    def test_empty_replica_acks_sentinel(self):
        replica = self.make_replica()
        actions = replica.handle(ReplStatusQueryPacket(group="g"), "source", 0.0)
        assert unicasts(actions, ReplAckPacket)[0].packet.cum_seq == _NO_SEQ

    def test_promotion(self):
        replica = self.make_replica()
        replica.handle(ReplUpdatePacket(group="g", seq=1, payload=b"a"), "prim", 0.0)
        actions = replica.handle(PromotePacket(group="g", from_seq=2), "source", 1.0)
        assert replica.role is LoggerRole.PRIMARY
        assert any(isinstance(a, JoinGroup) for a in actions)
        promoted = [a for a in actions if isinstance(a, Notify) and isinstance(a.event, PromotedToPrimary)]
        assert promoted and promoted[0].event.from_seq == 2
        # As new primary it now acks the source for handover updates.
        actions = replica.handle(ReplUpdatePacket(group="g", seq=2, payload=b"b"), "source", 1.1)
        assert unicasts(actions, ReplAckPacket)
        assert unicasts(actions, LogAckPacket)

    def test_promote_ignored_by_secondary(self):
        logger = make_secondary()
        actions = logger.handle(PromotePacket(group="g", from_seq=1), "source", 0.0)
        assert actions == []
        assert logger.role is LoggerRole.SECONDARY


class TestStatAckParticipation:
    def test_volunteers_with_probability_one(self):
        logger = make_secondary(rng=random.Random(1))
        actions = logger.handle(AckerSelectPacket(group="g", epoch=3, p_ack=1.0, k=5), "source", 0.0)
        responses = unicasts(actions, AckerResponsePacket)
        assert responses and responses[0].packet.epoch == 3
        assert any(isinstance(a, Notify) and isinstance(a.event, DesignatedAcker) for a in actions)

    def test_never_volunteers_at_probability_zero(self):
        logger = make_secondary(rng=random.Random(1))
        actions = logger.handle(AckerSelectPacket(group="g", epoch=3, p_ack=0.0, k=5), "source", 0.0)
        assert actions == []

    def test_designated_acker_acks_epoch_data(self):
        logger = make_secondary(rng=random.Random(1))
        logger.handle(AckerSelectPacket(group="g", epoch=3, p_ack=1.0, k=5), "source", 0.0)
        actions = logger.handle(DataPacket(group="g", seq=1, payload=b"p", epoch=3), "source", 0.1)
        acks = unicasts(actions, DataAckPacket)
        assert acks and acks[0].dest == "source"
        assert acks[0].packet.seq == 1 and acks[0].packet.epoch == 3

    def test_non_designated_does_not_ack(self):
        logger = make_secondary(rng=random.Random(1))
        actions = logger.handle(DataPacket(group="g", seq=1, payload=b"p", epoch=3), "source", 0.1)
        assert not unicasts(actions, DataAckPacket)

    def test_acks_remulticast_repairs_too(self):
        """Figure 8: after the re-multicast the source gets all its ACKs."""
        logger = make_secondary(rng=random.Random(1))
        logger.handle(AckerSelectPacket(group="g", epoch=3, p_ack=1.0, k=5), "source", 0.0)
        actions = logger.handle(RetransPacket(group="g", seq=2, payload=b"p", epoch=3), "source", 0.2)
        assert unicasts(actions, DataAckPacket)

    def test_probe_reply_probabilistic(self):
        logger = make_secondary(rng=random.Random(1))
        actions = logger.handle(ProbePacket(group="g", probe_id=1, p_ack=1.0), "source", 0.0)
        assert unicasts(actions, ProbeReplyPacket)
        actions = logger.handle(ProbePacket(group="g", probe_id=2, p_ack=0.0), "source", 0.1)
        assert not actions

    def test_primary_does_not_volunteer(self):
        primary = make_primary()
        actions = primary.handle(AckerSelectPacket(group="g", epoch=1, p_ack=1.0, k=5), "source", 0.0)
        assert not unicasts(actions, AckerResponsePacket)


class TestDiscovery:
    def test_answers_discovery_query(self):
        logger = make_secondary()
        actions = logger.handle(DiscoveryQueryPacket(group="g", ttl=1), "rx9", 0.0)
        replies = unicasts(actions, DiscoveryReplyPacket)
        assert replies and replies[0].dest == "rx9"
        assert replies[0].packet.logger_addr == "sec"
        assert replies[0].packet.level == 1

    def test_replica_stays_hidden(self):
        replica = LogServer("g", addr_token="r", config=LbrmConfig(), role=LoggerRole.REPLICA)
        actions = replica.handle(DiscoveryQueryPacket(group="g", ttl=1), "rx9", 0.0)
        assert actions == []
