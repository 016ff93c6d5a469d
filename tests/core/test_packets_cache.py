"""``encode``/``decode`` are the struct codec itself — there is no memo.

The memoised codec went when counting showed no runtime called it on a
hot path (DESIGN §6, "One head table, no codec memo"); what stays here is what
that layer's tests also pinned about the codec and the packet classes:
every registered type is sampled, the entry points agree with the
zero-copy decoder and the goldens, and packets are immutable values that
hash and compare by content.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.senderreliable import PosAckDataPacket, PosAckPacket
from repro.baselines.srm import SrmRepairPacket, SrmRequestPacket, SrmSessionPacket
from repro.core import packets as P

from .test_packets import ALL_PACKETS, GOLDENS, golden_vectors

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


def test_samples_cover_every_registered_type():
    """If a new packet type is registered, this file must learn about it."""
    sampled = {type(p).TYPE for p in EVERY_PACKET}
    assert sampled == set(P._REGISTRY), (
        "sample list out of sync with the packet registry; add an instance "
        f"for {sorted(set(P._REGISTRY) - sampled)}"
    )


def test_goldens_cover_every_registered_type():
    """A type registered without vectors in tests/data/wire_vectors.json (its WIRE,
    a valid one with distinct fixed fields, a boundary one, a rejected wire) fails."""
    registry = {cls.__name__: cls for cls in P._REGISTRY.values()}
    assert set(GOLDENS["types"]) == set(registry)
    for name, entry in GOLDENS["types"].items():
        cls = registry[name]
        assert entry["type"] == cls.TYPE and entry["wire_spec"] == [list(f) for f in cls.WIRE]
        fixed = [f for f, kind in cls.WIRE if kind not in ("bytes", "str", "u64seq")]
        assert any(len({v["fields"][f] for f in fixed}) == len(fixed) for v in entry["valid"])
        assert entry["boundary"] and entry["rejected"], name


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_cached_encode_is_bit_identical(packet):
    """Repeat encodes of one packet are equal bytes, as are its type's goldens'."""
    assert P.encode(packet) == P.encode(packet)
    for golden, wire in golden_vectors(type(packet)):
        assert P.encode(golden) == wire


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_cached_decode_matches_uncached(packet):
    wire = P.encode(packet)
    assert P.decode(wire) == P.decode_from(wire) == packet
    for golden, wire in golden_vectors(type(packet)):
        assert P.decode(wire) == P.decode_from(wire) == golden


@pytest.mark.parametrize("packet", EVERY_PACKET, ids=lambda p: type(p).__name__)
def test_packets_are_immutable(packet):
    """Sharing one packet object across receivers is only sound because
    packets cannot be mutated."""
    field = dataclasses.fields(packet)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(packet, field, "mutated")


def test_equal_packets_hash_equal_and_work_as_set_members():
    """The generated dataclass ``__hash__`` — no cached-hash slot — keeps
    packets usable as dict keys and set members, by value."""
    for packet in EVERY_PACKET:
        twin = P.decode(P.encode(packet))
        assert twin is not packet and twin == packet
        assert hash(twin) == hash(packet)
        assert {packet, twin} == {packet}
    assert len(set(EVERY_PACKET)) == len(EVERY_PACKET)
    assert "_hash" not in {f.name for f in dataclasses.fields(P.DataPacket)}
