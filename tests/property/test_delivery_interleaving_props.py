"""Interleaving properties: loss, reordering, and duplication are safe.

The receiver-reliable contract (§1-§2): whatever order the network
delivers, repeats, or drops packets in, the receiver must (a) deliver
each sequence exactly once, (b) never un-deliver data it already has,
and (c) account every undelivered interior sequence as missing.  The
log store's matching contract: an entry is retrievable with its
original payload from first append until lifetime expiry, under any
interleaving of appends and expiry sweeps.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import LogMissError
from repro.core.log_store import PacketLog
from repro.core.sequence import SequenceTracker

# One network-level occurrence: a data arrival (possibly a duplicate or a
# reordered retransmission) or a heartbeat asserting the source's highest.
arrival = st.one_of(
    st.tuples(st.just("data"), st.integers(min_value=1, max_value=60)),
    st.tuples(st.just("hb"), st.integers(min_value=0, max_value=60)),
)
interleavings = st.lists(arrival, min_size=1, max_size=120)


def _baseline(ops) -> int | None:
    """The tracker's baseline: the first seq that starts it — data with
    any seq, or a heartbeat with seq > 0 (idle heartbeats don't count)."""
    for kind, seq in ops:
        if kind == "data" or seq > 0:
            return seq
    return None


def _drive(tracker: SequenceTracker, ops) -> list[int]:
    delivered: list[int] = []
    for op, seq in ops:
        if op == "data":
            if tracker.observe_data(seq).is_new:
                delivered.append(seq)
        else:
            tracker.observe_heartbeat(seq)
    return delivered


@given(interleavings)
def test_each_sequence_delivered_at_most_once(ops):
    delivered = _drive(SequenceTracker(), ops)
    assert len(delivered) == len(set(delivered))


@given(interleavings)
def test_delivered_data_is_never_lost(ops):
    """has() is monotone: once delivered, a sequence stays delivered
    through any further interleaving of arrivals."""
    tracker = SequenceTracker()
    held: set[int] = set()
    for op, seq in ops:
        if op == "data":
            tracker.observe_data(seq)
        else:
            tracker.observe_heartbeat(seq)
        now_held = {s for s in range(1, 62) if tracker.has(s)}
        assert held <= now_held, f"previously held {held - now_held} vanished"
        held = now_held


@given(interleavings)
def test_missing_accounts_every_undelivered_interior_seq(ops):
    tracker = SequenceTracker()
    delivered = set(_drive(tracker, ops))
    if not tracker.started:
        assert tracker.missing == frozenset()
        return
    first = _baseline(ops)
    interior = set(range(first, tracker.highest + 1))
    assert set(tracker.missing) == interior - delivered
    # and nothing both delivered and missing
    assert not (delivered & set(tracker.missing))


@given(interleavings, st.randoms(use_true_random=False))
def test_recovery_in_any_order_converges(ops, rng):
    """Replaying the missing set as retransmissions — shuffled and
    duplicated arbitrarily — always empties it, and afterwards every
    interior sequence is held."""
    tracker = SequenceTracker()
    _drive(tracker, ops)
    repairs = list(tracker.missing) * 2  # every repair arrives twice
    rng.shuffle(repairs)
    for seq in repairs:
        tracker.observe_data(seq)
    assert tracker.missing == frozenset()
    if tracker.started:
        for seq in range(_baseline(ops), tracker.highest + 1):
            assert tracker.has(seq)


# -- log store: append/expiry interleavings ---------------------------------

LIFETIME = 10.0

log_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),  # time step
        st.one_of(
            st.tuples(
                st.just("append"),
                st.integers(min_value=1, max_value=40),
                st.binary(max_size=16),
            ),
            st.tuples(st.just("expire")),
        ),
    ),
    min_size=1,
    max_size=80,
)


@given(log_ops)
def test_log_store_expiry_interleaving_never_loses_live_data(timeline):
    """Under any interleaving of appends and expiry sweeps, an entry is
    retrievable with its first-appended payload exactly while it is
    within its lifetime, and gone afterwards."""
    log = PacketLog(lifetime=LIFETIME)
    model: dict[int, tuple[bytes, float]] = {}  # seq -> (payload, logged_at)
    now = 0.0
    for step, op in timeline:
        now += step
        if op[0] == "append":
            _, seq, payload = op
            if log.append(seq, payload, now=now):
                model[seq] = (payload, now)
            else:
                # idempotent: a re-append never overwrites
                assert seq in model or seq not in log
        else:
            log.expire(now)
            cutoff = now - LIFETIME
            model = {
                s: (p, t) for s, (p, t) in model.items() if t >= cutoff
            }
        # every live model entry is retrievable, byte-identical
        for seq, (payload, _) in model.items():
            assert log.get(seq) == payload
    # final sweep: anything past its lifetime must be unreachable
    log.expire(now + 2 * LIFETIME)
    for seq in model:
        try:
            log.get(seq)
        except LogMissError:
            continue
        raise AssertionError(f"seq {seq} survived full expiry")


@given(log_ops)
def test_log_store_len_matches_model(timeline):
    log = PacketLog(lifetime=LIFETIME)
    model: dict[int, float] = {}
    now = 0.0
    for step, op in timeline:
        now += step
        if op[0] == "append":
            _, seq, payload = op
            if log.append(seq, payload, now=now):
                model[seq] = now
        else:
            expired = log.expire(now)
            cutoff = now - LIFETIME
            doomed = {s for s, t in model.items() if t < cutoff}
            assert expired == len(doomed)
            for s in doomed:
                del model[s]
        assert len(log) == len(model)
        assert [seq for seq in range(1, 41) if seq in log] == sorted(model)
        if model:
            assert log.highest == max(model)
