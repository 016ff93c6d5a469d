"""Codec conformance: struct codecs vs golden vectors, a model and laws.

``WIRE`` and the golden vectors of ``tests/data/wire_vectors.json``
(valid, boundary and rejected encodings of every registered type) are
the wire-format specification; the precompiled ``struct``
codecs are the only thing ``encode`` / ``decode`` run.  This suite
fuzzes every registered packet type — the strategies are derived from
each class's ``WIRE`` declaration, so a new packet type is covered the
moment it is registered — and asserts:

* the bytes of a small in-test model out of ``encode``,
* identical packets out of ``decode`` for those bytes,
* rejection of truncated, extended, and garbage datagrams,
  always via :class:`DecodeError` — a raw ``struct.error`` escaping
  is a crash bug in a transport callback,
* canonical accepted bytes: ``encode(decode(b)) == b``.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import senderreliable, srm  # noqa: F401  (register their types)
from repro.core import packets as P
from repro.core.errors import DecodeError, EncodeError
from tests.core.test_packets import GOLDENS, golden_packet, golden_vectors

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


_FIXED_FMT = {"u8": "!B", "u16": "!H", "u32": "!I", "u64": "!Q", "f64": "!d"}


def _model_encode(packet) -> bytes:
    """The header, the group, then ``WIRE``: one ``struct`` call per field kind."""
    out = struct.pack("!2sBB", b"LB", 1, int(packet.TYPE))
    for kind, v in [("str", packet.group)] + [(k, getattr(packet, n)) for n, k in packet.WIRE]:
        if kind in ("str", "bytes"):
            raw = v.encode("utf-8") if kind == "str" else v
            out += struct.pack("!B" if kind == "str" else "!H", len(raw)) + raw
        elif kind == "u64seq":
            out += struct.pack(f"!H{len(v)}Q", len(v), *v)
        else:
            out += struct.pack(_FIXED_FMT[kind], v)
    return out


def _decode(data):
    """``decode(data)``, or None when it rejects; ``decode_from`` agrees.

    Accepted bytes must be canonical.  Only
    :class:`DecodeError` counts as rejection — anything else (above all
    ``struct.error``) propagates and fails the test.
    """
    try:
        packet = P.decode(data)
    except DecodeError:
        with pytest.raises(DecodeError):
            P.decode_from(data)
        return None
    assert P.encode(packet) == data
    assert _equal_with_nan(P.decode_from(data), packet)
    return packet


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


def test_compiled_decoders_refuse_what_they_would_skip():
    """Decoders build packets without ``__init__``: a ``__post_init__`` or
    a field with no slot (a dataclass without ``slots=True``) is refused."""

    @dataclasses.dataclass(frozen=True, slots=True)
    class CheckedPacket(P.Packet):
        TYPE = P.PacketType.DATA
        WIRE = (("a", "u32"),)
        a: int

        def __post_init__(self):
            pass

    @dataclasses.dataclass(frozen=True)
    class DictPacket(P.Packet):
        TYPE = P.PacketType.DATA
        WIRE = (("a", "u32"),)
        a: int

    registered = P._STRUCT_DECODERS[int(P.PacketType.DATA)]
    with pytest.raises(EncodeError, match="__post_init__"):
        P._compile_struct_codec(CheckedPacket)
    with pytest.raises(EncodeError, match="no slot"):
        P._compile_struct_codec(DictPacket)
    assert P._STRUCT_DECODERS[int(P.PacketType.DATA)] is registered


@pytest.mark.parametrize("cls", _ALL_CLASSES, ids=lambda c: c.__name__)
def test_every_field_lands_in_its_own_place(cls):
    """The goldens: distinct values in every field and a non-empty tail: a
    codec or ``WIRE`` that swaps two same-width fields (``HeartbeatPacket.hb_index``/``epoch``)
    fails here whatever examples hypothesis draws, and so does one that
    skips a body-length check (the rejected wires)."""
    for pkt, data in golden_vectors(cls):
        assert P.encode(pkt) == data
        decoded = P.decode(data)
        assert type(decoded) is cls and decoded == pkt
        assert repr(decoded) == repr(pkt) and hash(decoded) == hash(pkt)
    for bad in GOLDENS["types"][cls.__name__]["rejected"]:
        assert _decode(bytes.fromhex(bad["wire"])) is None, bad["why"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        decoded.group = "h"


def test_golden_rejections():
    """Header-level wires ``decode`` rejects; packets ``encode`` refuses."""
    for bad in GOLDENS["rejected_wires"]:
        assert _decode(bytes.fromhex(bad["wire"])) is None, bad["why"]
    registry = {cls.__name__: cls for cls in _ALL_CLASSES}
    for bad in GOLDENS["rejected_packets"]:
        with pytest.raises(EncodeError):
            P.encode(golden_packet(registry[bad["type"]], bad["fields"]))


@settings(max_examples=300, deadline=None)
@given(_PACKETS)
def test_struct_and_legacy_encodings_identical(pkt):
    assert P.encode(pkt) == _model_encode(pkt)


@settings(max_examples=300, deadline=None)
@given(_PACKETS)
def test_struct_and_legacy_roundtrip_identical(pkt):
    decoded = _decode(_model_encode(pkt))
    assert type(decoded) is type(pkt)
    assert decoded == pkt


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.data())
def test_truncation_rejected_identically(pkt, data):
    """Any proper prefix of a valid datagram fails on both paths."""
    wire = P.encode(pkt)
    cut = data.draw(st.integers(min_value=1, max_value=len(wire)))
    # Cutting from a correct encoding can never leave a shorter valid
    # parse (every body codec checks exact length), so both must reject.
    assert _decode(wire[: len(wire) - cut]) is None


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_rejected_identically(pkt, suffix):
    assert _decode(P.encode(pkt) + suffix) is None


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=128))
def test_garbage_outcomes_identical(data):
    """Arbitrary bytes: both paths agree — same packet or both reject."""
    _decode(data)


@settings(max_examples=150, deadline=None)
@given(_PACKETS, st.data())
def test_flipped_byte_never_escapes_decode_error(pkt, data):
    """Single-byte corruption parses as *something* or raises DecodeError.

    The interesting corruptions are in-structure (length fields, type
    byte, count words) — exactly where a naive codec lets struct.error
    or UnicodeDecodeError out.  _decode re-raises anything that is
    not a DecodeError.
    """
    wire = bytearray(P.encode(pkt))
    index = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    wire[index] ^= flip
    _decode(bytes(wire))


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
