"""Property tests for the bundle framing codec (transport fast path).

A bundle is pure framing: each frame is one complete single-packet
datagram, byte-identical to an unbundled send.  These properties pin
the two guarantees the aio transport builds on:

* totality of the roundtrip — any sequence of encoded packets (every
  registered type) survives ``encode_bundle`` → ``iter_bundle`` →
  ``decode_from`` unchanged, and the frames alias the bundle buffer
  (zero copies) without depending on it after decode;
* rejection safety — truncated, bit-flipped, or garbage bundle bytes
  either parse as *something* or raise :class:`DecodeError`, never a
  raw ``struct.error``/``IndexError`` that would crash a receive
  callback, and ``iter_bundle`` validates the whole frame table before
  yielding anything (no half-dispatched bundles).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packets as P
from repro.core.errors import DecodeError, EncodeError

# Strategies derived from each class's WIRE declaration (the same
# derivation test_codec_conformance.py uses), so a newly registered
# packet type is fuzzed through the bundle path automatically.
_GROUPS = st.text(min_size=1, max_size=24).filter(lambda s: len(s.encode()) <= 255)

_KIND_VALUES = {
    "u8": st.integers(min_value=0, max_value=2**8 - 1),
    "u16": st.integers(min_value=0, max_value=2**16 - 1),
    "u32": st.integers(min_value=0, max_value=2**32 - 1),
    "u64": st.integers(min_value=0, max_value=2**64 - 1),
    "f64": st.floats(allow_nan=False, width=64),
    "bytes": st.binary(max_size=256),
    "str": st.text(max_size=24).filter(lambda s: len(s.encode()) <= 255),
    "u64seq": st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=16
    ).map(tuple),
}


def _packet_strategy(cls):
    wire = cls.__dict__.get("WIRE") or ()
    spec = {"group": _GROUPS}
    for name, kind in wire:
        spec[name] = _KIND_VALUES[kind]
    return st.fixed_dictionaries(spec).map(lambda kw: cls(**kw))


_ALL_CLASSES = [cls for _, cls in sorted(P._REGISTRY.items())]
_PACKETS = st.one_of([_packet_strategy(cls) for cls in _ALL_CLASSES])
_PACKET_LISTS = st.lists(_PACKETS, min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(_PACKET_LISTS)
def test_bundle_roundtrip_every_registered_type(pkts):
    """encode_bundle → iter_bundle → decode_from is the identity."""
    wires = [P.encode(p) for p in pkts]
    bundle = P.encode_bundle(wires)
    assert P.is_bundle(bundle)
    frames = P.iter_bundle(bundle)
    assert [bytes(f) for f in frames] == wires
    assert [P.decode_from(f) for f in frames] == pkts


@settings(max_examples=100, deadline=None)
@given(_PACKET_LISTS)
def test_decoded_packets_survive_buffer_reuse(pkts):
    """decode_from materializes packets: scribbling over the receive
    buffer afterwards (as a recv ring does) must not corrupt them."""
    wires = [P.encode(p) for p in pkts]
    buf = bytearray(P.encode_bundle(wires))
    decoded = [P.decode_from(f) for f in P.iter_bundle(buf)]
    buf[:] = b"\xaa" * len(buf)
    assert decoded == pkts


@settings(max_examples=150, deadline=None)
@given(_PACKET_LISTS, st.data())
def test_truncated_bundle_always_raises_decode_error(pkts, data):
    """Any proper prefix of a bundle fails atomically in iter_bundle."""
    bundle = P.encode_bundle([P.encode(p) for p in pkts])
    cut = data.draw(st.integers(min_value=1, max_value=len(bundle)))
    with pytest.raises(DecodeError):
        P.iter_bundle(bundle[: len(bundle) - cut])


def test_every_truncation_point_of_trailing_frame_raises():
    """Exhaustive (not sampled) sweep over a multi-frame bundle: cutting
    at *any* byte — mid frame body, mid the final frame's u16 length
    prefix, or right after it — raises DecodeError.  A short final
    length-prefix in particular must never be read as "frame of length
    <first byte>" or silently dropped."""
    wires = [
        P.encode(P.ProbeReplyPacket(group="g", probe_id=i))
        for i in range(1, 4)
    ]
    bundle = P.encode_bundle(wires)
    assert P.iter_bundle(bundle)  # sanity: intact bundle parses
    for end in range(P.BUNDLE_OVERHEAD, len(bundle)):
        with pytest.raises(DecodeError):
            P.iter_bundle(bundle[:end])


def test_one_byte_final_length_prefix_raises():
    """The sharpest trailing truncation: all but one byte of the final
    frame's length prefix is gone, so reading a u16 there would run off
    the buffer.  The frame-table validation must reject it eagerly."""
    wires = [
        P.encode(P.ProbeReplyPacket(group="g", probe_id=1)),
        P.encode(P.ReplAckPacket(group="g", cum_seq=9)),
    ]
    bundle = P.encode_bundle(wires)
    short = bundle[: len(bundle) - len(wires[-1]) - 1]  # 1 byte of u16 left
    with pytest.raises(DecodeError, match="frame length"):
        P.iter_bundle(short)


@settings(max_examples=150, deadline=None)
@given(_PACKET_LISTS, st.data())
def test_truncated_final_packet_in_honest_frame_raises(pkts, data):
    """A bundle whose framing is intact but whose *final datagram* was
    truncated before bundling: iter_bundle hands the short frame over
    (the frame table is honest about its length), and decode_from must
    then raise — never return a partially-populated packet."""
    wires = [P.encode(p) for p in pkts]
    cut = data.draw(st.integers(min_value=1, max_value=len(wires[-1]) - 1))
    wires[-1] = wires[-1][:-cut]
    frames = P.iter_bundle(P.encode_bundle(wires))
    assert [P.decode_from(f) for f in frames[:-1]] == pkts[:-1]
    with pytest.raises(DecodeError):
        P.decode_from(frames[-1])


@settings(max_examples=150, deadline=None)
@given(_PACKET_LISTS, st.binary(min_size=1, max_size=8))
def test_trailing_garbage_rejected(pkts, suffix):
    bundle = P.encode_bundle([P.encode(p) for p in pkts])
    with pytest.raises(DecodeError):
        P.iter_bundle(bundle + suffix)


@settings(max_examples=200, deadline=None)
@given(_PACKET_LISTS, st.data())
def test_flipped_byte_never_escapes_decode_error(pkts, data):
    """Single-byte corruption anywhere in a bundle either still parses
    (flip landed in a payload) or raises DecodeError at iter_bundle or
    decode_from — never struct.error, UnicodeDecodeError, IndexError."""
    bundle = bytearray(P.encode_bundle([P.encode(p) for p in pkts]))
    index = data.draw(st.integers(min_value=0, max_value=len(bundle) - 1))
    bundle[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        frames = P.iter_bundle(bytes(bundle))
    except DecodeError:
        return
    for frame in frames:
        try:
            packet = P.decode_from(frame)
        except DecodeError:
            continue
        assert isinstance(packet, P.Packet)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=192))
def test_garbage_never_crashes_iter_bundle(data):
    try:
        frames = P.iter_bundle(data)
    except DecodeError:
        return
    for frame in frames:
        try:
            P.decode_from(frame)
        except DecodeError:
            pass


@settings(max_examples=100, deadline=None)
@given(_PACKETS)
def test_single_packet_wire_is_never_mistaken_for_a_bundle(pkt):
    """The magics ('LB' packet vs 'Lb' bundle) are disjoint: a plain
    datagram never takes the bundle branch and vice versa."""
    wire = P.encode(pkt)
    assert not P.is_bundle(wire)
    bundle = P.encode_bundle([wire])
    with pytest.raises(DecodeError):
        P.decode_from(bundle)


def test_encode_bundle_rejects_empty_and_oversized():
    wire = P.encode(P.ProbeReplyPacket(group="g", probe_id=1))
    with pytest.raises(EncodeError):
        P.encode_bundle([])
    with pytest.raises(EncodeError):
        P.encode_bundle([wire] * (P.MAX_BUNDLE_FRAMES + 1))
    # The cap itself is fine.
    frames = P.iter_bundle(P.encode_bundle([wire] * P.MAX_BUNDLE_FRAMES))
    assert len(frames) == P.MAX_BUNDLE_FRAMES


def test_iter_bundle_rejects_zero_count_and_bad_version():
    wire = P.encode(P.ProbeReplyPacket(group="g", probe_id=1))
    bundle = bytearray(P.encode_bundle([wire]))
    zero = bytes(bundle[:3]) + b"\x00"  # header with count=0, no frames
    with pytest.raises(DecodeError):
        P.iter_bundle(zero)
    bundle[2] ^= 0xFF  # version byte
    with pytest.raises(DecodeError):
        P.iter_bundle(bytes(bundle))


def test_bundle_overhead_constants_match_the_wire():
    """The TX coalescer budgets datagrams with these constants; they
    must equal the actual framing cost."""
    w1 = P.encode(P.ProbeReplyPacket(group="g", probe_id=1))
    w2 = P.encode(P.ReplAckPacket(group="g", cum_seq=9))
    bundle = P.encode_bundle([w1, w2])
    expected = (
        P.BUNDLE_OVERHEAD
        + len(w1) + P.BUNDLE_FRAME_OVERHEAD
        + len(w2) + P.BUNDLE_FRAME_OVERHEAD
    )
    assert len(bundle) == expected
