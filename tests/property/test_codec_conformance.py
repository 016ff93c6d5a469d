"""Differential codec conformance: struct codecs vs the per-field spec.

The per-field ``encode_body`` / ``decode_body`` methods are the
executable wire-format specification, reached through
``encode_reference`` / ``decode_reference``; the precompiled ``struct``
codecs are the only thing ``encode`` / ``decode`` run.  This suite
fuzzes every registered packet type — the strategies are derived from
each class's ``WIRE`` declaration, so a new packet type is covered the
moment it is registered — and asserts the two paths are
indistinguishable:

* identical bytes out of ``encode`` for identical packets,
* identical packets out of ``decode`` for identical bytes,
* identical rejection of truncated, extended, and garbage datagrams,
  always via :class:`DecodeError` — a raw ``struct.error`` escaping
  either path is a crash bug in a transport callback.

A ``DecodeError`` from one path with a successful parse in the other
would mean the runtime codec no longer implements the specification,
so every assertion here runs the same input through both.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packets as P
from repro.core.errors import DecodeError, EncodeError

# -- strategies derived from the WIRE specs ----------------------------------

_GROUPS = st.text(min_size=1, max_size=24).filter(lambda s: len(s.encode()) <= 255)

_KIND_VALUES = {
    "u8": st.integers(min_value=0, max_value=2**8 - 1),
    "u16": st.integers(min_value=0, max_value=2**16 - 1),
    "u32": st.integers(min_value=0, max_value=2**32 - 1),
    "u64": st.integers(min_value=0, max_value=2**64 - 1),
    "f64": st.floats(allow_nan=False, width=64),
    "bytes": st.binary(max_size=512),
    "str": st.text(max_size=24).filter(lambda s: len(s.encode()) <= 255),
    "u64seq": st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=32
    ).map(tuple),
}


def _packet_strategy(cls):
    wire = cls.__dict__.get("WIRE") or ()
    spec = {"group": _GROUPS}
    for name, kind in wire:
        spec[name] = _KIND_VALUES[kind]
    return st.fixed_dictionaries(spec).map(lambda kw: cls(**kw))


# Every registered type, in wire-type order.  The one_of covers the
# whole registry in each property; the parametrized tests below pin the
# per-class cases so a failure names the offending type directly.
_ALL_CLASSES = [cls for _, cls in sorted(P._REGISTRY.items())]
_PACKETS = st.one_of([_packet_strategy(cls) for cls in _ALL_CLASSES])


def _decode_both(data):
    """Decode through both paths; return (struct_outcome, legacy_outcome).

    Outcomes are ``("ok", packet)`` or ``("error", message)``.  Only
    :class:`DecodeError` counts as rejection — anything else (above all
    ``struct.error``) propagates and fails the test.
    """
    outcomes = []
    for decode in (P.decode, P.decode_reference):
        try:
            packet = decode(data)
        except DecodeError:
            outcomes.append(("error",))
        else:
            outcomes.append(("ok", packet))
    return outcomes


@pytest.mark.parametrize("cls", _ALL_CLASSES, ids=lambda c: c.__name__)
def test_every_registered_type_has_a_struct_codec(cls):
    """Registration compiles a struct codec or fails; there is no fallback."""
    assert cls in P._STRUCT_ENCODERS
    assert int(cls.TYPE) in P._STRUCT_DECODERS


def test_registering_a_class_without_wire_is_refused():
    ptype = 250
    assert ptype not in P._REGISTRY

    class NoWirePacket(P.Packet):
        TYPE = ptype

        def encode_body(self) -> bytes:
            return b""

        @classmethod
        def decode_body(cls, group, buf):
            return cls(group=group)

    with pytest.raises(EncodeError, match="WIRE"):
        P.register_packet(NoWirePacket)
    # Refused before registration: nothing decodes to it, nothing encodes it.
    assert ptype not in P._REGISTRY
    assert ptype not in P._STRUCT_DECODERS
    with pytest.raises(EncodeError):
        P.encode(NoWirePacket(group="g"))


def test_fixed_only_wire_out_of_constructor_order_is_refused():
    @dataclasses.dataclass(frozen=True, slots=True)
    class SwappedPacket(P.Packet):
        TYPE = P.PacketType.DATA  # refused before anything is registered under it
        WIRE = (("b", "u32"), ("a", "u32"))
        a: int
        b: int

    registered = P._STRUCT_DECODERS[int(P.PacketType.DATA)]
    with pytest.raises(EncodeError, match="constructor order"):
        P._compile_struct_codec(SwappedPacket)
    assert P._STRUCT_DECODERS[int(P.PacketType.DATA)] is registered


@settings(max_examples=300, deadline=None)
@given(_PACKETS)
def test_struct_and_legacy_encodings_identical(pkt):
    assert P.encode(pkt) == P.encode_reference(pkt)


@settings(max_examples=300, deadline=None)
@given(_PACKETS)
def test_struct_and_legacy_roundtrip_identical(pkt):
    wire = P.encode_reference(pkt)
    via_struct = P.decode(wire)
    via_legacy = P.decode_reference(wire)
    assert type(via_struct) is type(pkt)
    assert via_struct == pkt
    assert via_legacy == pkt


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.data())
def test_truncation_rejected_identically(pkt, data):
    """Any proper prefix of a valid datagram fails on both paths."""
    wire = P.encode(pkt)
    cut = data.draw(st.integers(min_value=1, max_value=len(wire)))
    struct_out, legacy_out = _decode_both(wire[: len(wire) - cut])
    # Cutting from a correct encoding can never leave a shorter valid
    # parse (every body codec checks exact length), so both must reject.
    assert struct_out == ("error",)
    assert legacy_out == ("error",)


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_rejected_identically(pkt, suffix):
    wire = P.encode(pkt)
    struct_out, legacy_out = _decode_both(wire + suffix)
    assert struct_out == ("error",)
    assert legacy_out == ("error",)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=128))
def test_garbage_outcomes_identical(data):
    """Arbitrary bytes: both paths agree — same packet or both reject."""
    struct_out, legacy_out = _decode_both(data)
    assert struct_out == legacy_out


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.data())
def test_flipped_byte_never_escapes_decode_error(pkt, data):
    """Single-byte corruption parses as *something* or raises DecodeError.

    The interesting corruptions are in-structure (length fields, type
    byte, count words) — exactly where a naive codec lets struct.error
    or UnicodeDecodeError out.  _decode_both re-raises anything that is
    not a DecodeError.
    """
    wire = bytearray(P.encode(pkt))
    index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    wire[index] ^= flip
    struct_out, legacy_out = _decode_both(bytes(wire))
    if struct_out[0] == "ok" and legacy_out[0] == "ok":
        assert _equal_with_nan(struct_out[1], legacy_out[1])


def _equal_with_nan(a, b) -> bool:
    """``a == b`` field by field, except that a NaN equals a NaN: a flipped
    f64 byte can decode to one on both paths (``--hypothesis-seed=0`` does)."""
    if type(a) is not type(b):
        return False
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        both_nan = (isinstance(x, float) and isinstance(y, float)
                    and math.isnan(x) and math.isnan(y))
        if x != y and not both_nan:
            return False
    return True


# -- input normalization (the transport hands us whatever it has) ------------


def test_decode_accepts_bytearray_and_memoryview():
    """Regression: asyncio transports deliver bytearray/memoryview; every
    buffer type parses to the same value as the bytes input."""
    pkt = P.DataPacket(group="g", seq=7, payload=b"payload", epoch=3)
    wire = P.encode(pkt)
    from_bytes = P.decode(wire)
    from_bytearray = P.decode(bytearray(wire))
    from_memoryview = P.decode(memoryview(wire))
    assert from_bytes == from_bytearray == from_memoryview == pkt


def test_decode_from_accepts_bytearray_and_memoryview():
    pkt = P.NackPacket(group="g", seqs=(4, 9))
    wire = P.encode(pkt)
    assert P.decode_from(bytearray(wire)) == pkt
    assert P.decode_from(memoryview(wire)) == pkt


def test_decode_rejects_malformed_bytearray_with_decode_error():
    with pytest.raises(DecodeError):
        P.decode(bytearray(b"\x00\x01\x02"))
    with pytest.raises(DecodeError):
        P.decode(memoryview(b"LBRM-but-not-really"))
