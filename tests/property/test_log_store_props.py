"""Property-based tests for PacketLog invariants."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.core.errors import LogMissError
from repro.core.log_store import PacketLog

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
        assert log.get(seq).payload == payload


@given(entries, st.integers(min_value=1, max_value=10))
def test_max_packets_cap_holds(items, cap):
    log = PacketLog(max_packets=cap)
    for seq, payload in items:
        log.append(seq, payload, now=0.0)
    assert len(log) <= cap


@given(entries, st.integers(min_value=1, max_value=10))
def test_spool_preserves_everything(items, cap):
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp, obs.recording() as reg:
        log = PacketLog(max_packets=cap, spool_path=os.path.join(tmp, "spool"))
        first: dict[int, bytes] = {}
        for seq, payload in items:
            log.append(seq, payload, now=0.0)
            first.setdefault(seq, payload)
        for seq, payload in first.items():
            assert log.get(seq).payload == payload
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
