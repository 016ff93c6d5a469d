"""Packet-log store tests: retention, caps, lifetime, disk spool."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.errors import LogMissError
from repro.core.log_store import PacketLog


def test_append_and_get():
    log = PacketLog()
    assert log.append(1, b"one", now=0.0)
    assert log.get(1) == b"one"


def test_append_is_idempotent():
    log = PacketLog()
    log.append(1, b"one", now=0.0)
    assert not log.append(1, b"ONE", now=1.0)
    assert log.get(1) == b"one"


def test_get_missing_raises():
    log = PacketLog()
    with pytest.raises(LogMissError) as exc:
        log.get(42)
    assert exc.value.seq == 42


def test_contains_and_len():
    log = PacketLog()
    log.append(1, b"a", 0.0)
    log.append(3, b"c", 0.0)
    assert 1 in log and 3 in log and 2 not in log
    assert len(log) == 2
    assert log.highest == 3


def test_byte_size_tracks_payloads():
    log = PacketLog()
    log.append(1, b"abc", 0.0)
    log.append(2, b"defgh", 0.0)
    assert log.byte_size == 8


def test_max_packets_evicts_oldest():
    with obs.recording() as reg:
        log = PacketLog(max_packets=3)
        for seq in range(1, 6):
            log.append(seq, bytes([seq]), 0.0)
    assert len(log) == 3
    assert [seq for seq in range(1, 6) if seq in log] == [3, 4, 5]
    assert reg.counter_value("log_store.evicted") == 2  # lost to the log for good
    with pytest.raises(LogMissError):
        log.get(1)


def test_lifetime_expiry():
    log = PacketLog(lifetime=5.0)
    log.append(1, b"old", 0.0)
    log.append(2, b"new", 4.0)
    assert log.expire(6.0) == 1
    assert 1 not in log and 2 in log


def test_an_entry_lives_exactly_its_lifetime():
    """Logged at 1.0 with a 5 s lifetime: held through 6.0 (not older
    than its lifetime), gone just after."""
    log = PacketLog(lifetime=5.0)
    log.append(1, b"p", 1.0)
    assert log.expire(6.0) == 0 and log.get(1, now=6.0) == b"p"
    assert log.expire(6.001) == 1 and 1 not in log


def test_get_with_now_applies_expiry():
    log = PacketLog(lifetime=5.0)
    log.append(1, b"old", 0.0)
    with pytest.raises(LogMissError):
        log.get(1, now=10.0)


def test_trim_below():
    log = PacketLog()
    for seq in range(1, 10):
        log.append(seq, b"p", 0.0)
    assert log.trim_below(5) == 4
    assert [seq for seq in range(1, 10) if seq in log] == [5, 6, 7, 8, 9]


def test_spool_overflow_retrievable(tmp_path):
    """Entries pushed past the memory cap survive on disk (§2's
    'writing them to disk once in-memory buffers are full')."""
    spool = tmp_path / "log.spool"
    with obs.recording() as reg:
        log = PacketLog(max_packets=2, spool_path=str(spool))
        for seq in range(1, 6):
            log.append(seq, f"payload-{seq}".encode(), now=float(seq))
    assert len(log) == 5  # everything still retrievable
    assert reg.counter_value("log_store.evicted") == 0
    assert reg.counter_value("log_store.spooled") == 3
    assert log.get(1) == b"payload-1"
    # in-memory entries still work too
    assert log.get(5) == b"payload-5"
    log.close()


def test_spool_respects_lifetime(tmp_path):
    spool = tmp_path / "log.spool"
    log = PacketLog(max_packets=1, lifetime=2.0, spool_path=str(spool))
    log.append(1, b"a", 0.0)
    log.append(2, b"b", 1.0)  # pushes 1 to spool
    log.expire(5.0)
    assert 1 not in log and 2 not in log
    log.close()


def test_a_spooled_entry_expires_at_its_logged_time(tmp_path):
    """Spooling keeps an entry's log time, not the time it was spooled:
    seq 1, logged at 1.0 and spooled at 3.0, goes at 1.0 + lifetime."""
    spool = tmp_path / "log.spool"
    log = PacketLog(max_packets=1, lifetime=5.0, spool_path=str(spool))
    log.append(1, b"a", 1.0)
    log.append(2, b"b", 3.0)  # pushes 1 to the spool
    assert log.expire(6.0) == 0 and log.get(1) == b"a"
    assert log.expire(6.5) == 1 and 1 not in log and 2 in log
    log.close()


def test_spool_trim_below(tmp_path):
    spool = tmp_path / "log.spool"
    log = PacketLog(max_packets=1, spool_path=str(spool))
    for seq in range(1, 5):
        log.append(seq, b"p", 0.0)
    log.trim_below(4)
    assert [seq for seq in range(1, 5) if seq in log] == [4]
    log.close()


def test_lowest_highest_span_memory_and_spool(tmp_path):
    spool = tmp_path / "log.spool"
    log = PacketLog(max_packets=2, spool_path=str(spool))
    for seq in (10, 11, 12, 13):
        log.append(seq, b"p", 0.0)
    assert 10 in log and 9 not in log  # the lowest, in spool
    assert log.highest == 13  # in memory
    log.close()


def test_empty_log_properties():
    log = PacketLog()
    assert log.highest is None
    assert len(log) == 0 and log.byte_size == 0
