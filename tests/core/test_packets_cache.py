"""Codec memoization tests: correctness, accounting, and safety.

The encode/decode memos (``repro.core.packets``) are a pure performance
layer — every test here pins a way they could silently stop being one:
cached bytes drifting from the uncached path, a mutable packet escaping
into the cache, counters lying about hit rates, or the FIFO bound not
holding.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.baselines.senderreliable import PosAckDataPacket, PosAckPacket
from repro.baselines.srm import SrmRepairPacket, SrmRequestPacket, SrmSessionPacket
from repro.core import packets as P

from .test_packets import ALL_PACKETS

# One sample instance per registered extension type; together with
# ALL_PACKETS this must cover the full registry (enforced below).
EXTENSION_PACKETS = [
    PosAckDataPacket(group="g", seq=3, payload=b"pos"),
    PosAckPacket(group="g", cum_seq=3),
    SrmSessionPacket(group="g", seq=12),
    SrmRequestPacket(group="g", seq=11),
    SrmRepairPacket(group="g", seq=11, payload=b"repair"),
]

EVERY_PACKET = ALL_PACKETS + EXTENSION_PACKETS


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test sees empty memos and leaves none behind."""
    P.clear_codec_caches()
    yield
    P.clear_codec_caches()


def test_samples_cover_every_registered_type():
    """If a new packet type is registered, this file must learn about it."""
    sampled = {type(p).TYPE for p in EVERY_PACKET}
    assert sampled == set(P._REGISTRY), (
        "sample list out of sync with the packet registry; add an instance "
        f"for {sorted(set(P._REGISTRY) - sampled)}"
    )


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_cached_encode_is_bit_identical(packet):
    """Memoized bytes == uncached bytes, on miss and on hit."""
    expected = P.encode_uncached(packet)
    assert P.encode(packet) == expected  # miss path
    assert P.encode(packet) == expected  # hit path


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_cached_decode_matches_uncached(packet):
    wire = P.encode_uncached(packet)
    assert P.decode(wire) == P.decode_uncached(wire) == packet


def test_decode_hit_returns_shared_instance():
    """Identical datagrams decode to one frozen object, not copies."""
    wire = P.encode_uncached(P.DataPacket(group="g", seq=1, payload=b"x"))
    assert P.decode(wire) is P.decode(bytes(wire))


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_packets_are_immutable(packet):
    """Memoization is only sound because packets cannot be mutated."""
    field = dataclasses.fields(packet)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(packet, field, "mutated")


def test_stats_count_hits_and_misses():
    packet = P.HeartbeatPacket(group="g", seq=5, hb_index=1)
    P.encode(packet)
    P.encode(packet)
    P.encode(packet)
    stats = P.codec_cache_stats()["encode"]
    assert stats["misses"] == 1
    assert stats["hits"] == 2
    assert stats["size"] == 1


def test_hits_mirror_into_obs_counters():
    """While a registry is recording, every hit/miss bumps a counter."""
    packet = P.NackPacket(group="g", seqs=(4, 5))
    with obs.recording() as reg:
        P.encode(packet)
        P.encode(packet)
        wire = P.encode_uncached(packet)
        P.decode(wire)
        P.decode(wire)
        assert reg.counter_value("packets.encode_cache", result="miss") == 1
        assert reg.counter_value("packets.encode_cache", result="hit") == 1
        assert reg.counter_value("packets.decode_cache", result="miss") == 1
        assert reg.counter_value("packets.decode_cache", result="hit") == 1


def test_counters_rebind_across_recording_windows():
    """A fresh registry per window sees only its own window's traffic."""
    packet = P.ProbePacket(group="g", probe_id=2, p_ack=0.5)
    with obs.recording() as first:
        P.encode(packet)
    with obs.recording() as second:
        P.encode(packet)
        assert second.counter_value("packets.encode_cache", result="hit") == 1
        assert second.counter_value("packets.encode_cache", result="miss") == 0
    assert first.counter_value("packets.encode_cache", result="miss") == 1


def test_hits_off_recording_skip_registry_entirely():
    """With obs uninstalled the memo still counts locally (cheap ints)."""
    packet = P.DataAckPacket(group="g", epoch=1, seq=2)
    P.encode(packet)
    P.encode(packet)
    assert P.codec_cache_stats()["encode"] == {
        "hits": 1,
        "misses": 1,
        "size": 1,
    }


def test_encode_cache_is_fifo_bounded():
    """The memo never outgrows max_entries; oldest entries age out."""
    bound = P._ENCODE_CACHE.max_entries
    first = P.DataPacket(group="g", seq=0, payload=b"")
    P.encode(first)
    for seq in range(1, bound + 1):
        P.encode(P.DataPacket(group="g", seq=seq, payload=b""))
    stats = P.codec_cache_stats()["encode"]
    assert stats["size"] == bound
    assert first not in P._ENCODE_CACHE.entries  # evicted first-in
    P.encode(first)
    assert P.codec_cache_stats()["encode"]["misses"] == bound + 2
