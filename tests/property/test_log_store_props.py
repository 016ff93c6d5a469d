"""Property-based tests for PacketLog invariants, and a differential
of a log server's log against a model of what it holds."""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import LbrmConfig, LoggerConfig
from repro.core.errors import LogMissError
from repro.core.log_store import PacketLog
from repro.core.logger import LoggerRole, LogServer
from repro.core.packets import DataPacket, NackPacket, RetransPacket

entries = st.lists(
    st.tuples(st.integers(min_value=1, max_value=100), st.binary(max_size=64)),
    min_size=1,
    max_size=60,
)


@given(entries)
def test_get_returns_first_append(items):
    log = PacketLog()
    first: dict[int, bytes] = {}
    for seq, payload in items:
        log.append(seq, payload, now=0.0)
        first.setdefault(seq, payload)
    for seq, payload in first.items():
        assert log.get(seq) == payload


@given(entries, st.integers(min_value=1, max_value=10))
def test_max_packets_cap_holds(items, cap):
    log = PacketLog(max_packets=cap)
    for seq, payload in items:
        log.append(seq, payload, now=0.0)
    assert len(log) <= cap


@given(entries, st.integers(min_value=1, max_value=10))
def test_spool_preserves_everything(items, cap):
    with tempfile.TemporaryDirectory() as tmp, obs.recording() as reg:
        log = PacketLog(max_packets=cap, spool_path=os.path.join(tmp, "spool"))
        first: dict[int, bytes] = {}
        for seq, payload in items:
            log.append(seq, payload, now=0.0)
            first.setdefault(seq, payload)
        for seq, payload in first.items():
            assert log.get(seq) == payload
        assert reg.counter_value("log_store.evicted") == 0
        log.close()


@given(entries)
def test_byte_size_matches_contents(items):
    log = PacketLog()
    stored: dict[int, bytes] = {}
    for seq, payload in items:
        if log.append(seq, payload, now=0.0):
            stored[seq] = payload
    assert log.byte_size == sum(len(p) for p in stored.values())


@given(entries, st.integers(min_value=1, max_value=100))
def test_trim_below_leaves_no_lower_seq(items, cutoff):
    log = PacketLog()
    for seq, payload in items:
        log.append(seq, payload, now=0.0)
    log.trim_below(cutoff)
    assert not any(seq in log for seq in range(1, cutoff))
    for seq in range(1, cutoff):
        try:
            log.get(seq)
        except LogMissError:
            continue
        raise AssertionError(f"seq {seq} survived trim_below({cutoff})")


class LogModel:
    """What a log of cap ``cap`` (0: none), ``lifetime`` (0: forever),
    spooling or not, holds: seq -> (payload, logged_at), in memory in
    FIFO order or on the spool."""

    def __init__(self, cap: int, lifetime: float, spooling: bool) -> None:
        self.cap, self.lifetime, self.spooling = cap, lifetime, spooling
        self.memory: OrderedDict[int, tuple[bytes, float]] = OrderedDict()
        self.spool: dict[int, tuple[bytes, float]] = {}

    def held(self, seq: int) -> tuple[bytes, float] | None:
        return self.memory.get(seq) or self.spool.get(seq)

    def append(self, seq: int, payload: bytes, now: float) -> None:
        if self.held(seq) is None:
            self.memory[seq] = (payload, now)
            while self.cap and len(self.memory) > self.cap:
                old, entry = self.memory.popitem(last=False)
                if self.spooling:
                    self.spool[old] = entry

    def drop(self, doomed) -> int:
        gone = 0
        for table in (self.memory, self.spool):
            for seq in [s for s, entry in table.items() if doomed(s, entry)]:
                del table[seq]
                gone += 1
        return gone

    def expire(self, now: float) -> int:
        if not self.lifetime:
            return 0
        return self.drop(lambda s, entry: entry[1] < now - self.lifetime)


SEQS = st.integers(min_value=1, max_value=12)
log_server_ops = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5]),  # time step
        st.one_of(
            st.tuples(st.just("append"), SEQS, st.binary(max_size=8)),
            st.tuples(st.just("nack"), SEQS, st.sampled_from(["rx1", "rx2", "rx3"])),
            st.tuples(st.just("expire")),
            st.tuples(st.just("trim"), SEQS),
        ),
    ),
    min_size=15,
    max_size=60,
)


def _repairs(actions, seq: int) -> list[RetransPacket]:
    return [a.packet for a in actions if type(getattr(a, "packet", None)) is RetransPacket
            and a.packet.seq == seq]


@settings(max_examples=150, deadline=None)
@given(
    cap=st.sampled_from([0, 1, 3, 6]),
    lifetime=st.sampled_from([0.0, 2.0]),
    spooling=st.booleans(),
    ops=log_server_ops,
    wipe=st.booleans(),
)
def test_a_log_servers_log_holds_what_the_model_holds(cap, lifetime, spooling, ops, wipe):
    """Append, NACK repair, expiry, trim_below, cap eviction, spooling and
    a final wipe_restart, against the model: a seq's repair is one object
    while its entry is in memory and none is held after it leaves; size,
    membership, payloads, FIFO eviction and a spooled entry's expiry time
    are the model's."""
    with tempfile.TemporaryDirectory() as tmp:
        logger = LogServer(
            "g", addr_token="sec", role=LoggerRole.SECONDARY, source="source", level=1,
            config=LbrmConfig(logger=LoggerConfig(max_packets=cap, packet_lifetime=lifetime)),
            spool_path=os.path.join(tmp, "spool") if spooling else None,
        )
        log, model = logger.log, LogModel(cap, lifetime, spooling)
        repair: dict[int, RetransPacket] = {}  # seq -> the one repair its memory entry holds
        let_go: list[RetransPacket] = []  # repairs whose entry left memory, or never held

        def settle() -> None:
            for seq in [s for s in repair if s not in model.memory]:
                let_go.append(repair.pop(seq))

        def nack(seq: int, requester: str) -> None:
            if lifetime:
                model.expire(now)  # a NACK ages the log out first
                settle()
            replies = _repairs(logger.handle(NackPacket(group="g", seqs=(seq,)), requester, now), seq)
            held = model.held(seq)
            if held is None:
                assert replies == []
                return
            (reply,) = replies
            assert reply.payload == held[0]
            assert all(reply is not old for old in let_go)
            if seq in model.memory:
                assert repair.setdefault(seq, reply) is reply
            else:
                let_go.append(reply)  # a spooled read: a fresh repair, never kept

        now = 0.0
        for step, op in ops:
            now += step
            if op[0] == "append":
                logger.handle(DataPacket(group="g", seq=op[1], payload=op[2]), "source", now)
                model.append(op[1], op[2], now)
            elif op[0] == "nack":
                nack(op[1], op[2])
            elif op[0] == "expire":
                assert log.expire(now) == model.expire(now)
            else:
                assert log.trim_below(op[1]) == model.drop(lambda s, entry: s < op[1])
            settle()
            assert len(log) == len(model.memory) + len(model.spool)
            assert log.byte_size == sum(len(p) for p, _ in model.memory.values())
            for seq in range(1, 13):
                held = model.held(seq)
                assert (seq in log) == (held is not None)
                assert log.peek(seq) == (held and held[0])
                if held is not None:
                    assert log.get(seq) == held[0]
                    nack(seq, "rx1")  # in memory, still the same repair
        if wipe:
            old_log = logger.log
            logger.wipe_restart(now)
            old_log.close()
            model = LogModel(cap, lifetime, spooling)
            settle()
            assert len(logger.log) == 0 and logger.log.byte_size == 0
            for seq in range(1, 13):
                nack(seq, "rx1")
        logger.log.close()
