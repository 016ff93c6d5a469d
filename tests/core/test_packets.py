"""Wire-format unit tests: round-trips, malformed input, registry rules."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import packets as P
from repro.core.errors import DecodeError, EncodeError

GOLDENS = json.loads((Path(__file__).parents[1] / "data" / "wire_vectors.json").read_text("utf-8"))


def golden_packet(cls, fields: dict):
    """A ``cls`` from a golden's JSON fields (tests/data/wire_vectors.json)."""
    kw = dict(fields)
    for name, kind in cls.WIRE:
        if kind == "bytes":
            v = kw[name]
            kw[name] = bytes([v["byte"]]) * v["len"] if isinstance(v, dict) else bytes.fromhex(v)
        elif kind == "u64seq":
            kw[name] = tuple(kw[name])
    return cls(**kw)


def golden_vectors(cls):
    """``(packet, wire)`` per valid and boundary golden of ``cls``."""
    entry = GOLDENS["types"][cls.__name__]
    for vector in entry["valid"] + entry["boundary"]:
        packet, wire = golden_packet(cls, vector["fields"]), vector["wire"]
        if isinstance(wire, dict):  # stored as length + SHA-256
            data = P.encode(packet)
            assert (len(data), hashlib.sha256(data).hexdigest()) == (wire["len"], wire["sha256"])
            wire = data.hex()
        yield packet, bytes.fromhex(wire)


ALL_PACKETS = [
    P.DataPacket(group="g", seq=7, payload=b"hello", epoch=2),
    P.DataPacket(group="terrain/bridge/17", seq=1, payload=b"", epoch=0),
    P.HeartbeatPacket(group="g", seq=7, hb_index=3, epoch=2),
    P.HeartbeatPacket(group="g", seq=0, hb_index=1),
    P.NackPacket(group="g", seqs=(1,)),
    P.NackPacket(group="g", seqs=tuple(range(1, 65))),
    P.RetransPacket(group="g", seq=9, payload=b"x" * 1000, epoch=5),
    P.LogAckPacket(group="g", primary_seq=9, replica_seq=5),
    P.AckerSelectPacket(group="g", epoch=4, p_ack=0.03125, k=10),
    P.AckerResponsePacket(group="g", epoch=4),
    P.DataAckPacket(group="g", epoch=4, seq=7),
    P.ProbePacket(group="g", probe_id=1, p_ack=0.1),
    P.ProbeReplyPacket(group="g", probe_id=1),
    P.DiscoveryQueryPacket(group="g", ttl=4),
    P.DiscoveryReplyPacket(group="g", logger_addr="site1-logger", level=1),
    P.ReplUpdatePacket(group="g", seq=3, payload=b"abc"),
    P.ReplAckPacket(group="g", cum_seq=3),
    P.PrimaryQueryPacket(group="g"),
    P.PrimaryInfoPacket(group="g", primary_addr="10.0.0.1:4242"),
    P.PromotePacket(group="g", from_seq=4),
    P.ReplStatusQueryPacket(group="g"),
]


@pytest.mark.parametrize("packet", ALL_PACKETS, ids=lambda p: type(p).__name__ + str(ALL_PACKETS.index(p) if p in ALL_PACKETS else ""))
def test_roundtrip(packet):
    assert P.decode(P.encode(packet)) == packet


def test_roundtrip_preserves_group_unicode():
    packet = P.DataPacket(group="grüppe/µ", seq=1, payload=b"p")
    assert P.decode(P.encode(packet)).group == "grüppe/µ"


def test_decode_rejects_short_datagram():
    with pytest.raises(DecodeError):
        P.decode(b"LB")


def test_decode_rejects_bad_magic():
    data = bytearray(P.encode(P.PrimaryQueryPacket(group="g")))
    data[0:2] = b"XX"
    with pytest.raises(DecodeError):
        P.decode(bytes(data))


def test_decode_rejects_bad_version():
    data = bytearray(P.encode(P.PrimaryQueryPacket(group="g")))
    data[2] = 99
    with pytest.raises(DecodeError):
        P.decode(bytes(data))


def test_decode_rejects_unknown_type():
    data = bytearray(P.encode(P.PrimaryQueryPacket(group="g")))
    data[3] = 200
    with pytest.raises(DecodeError):
        P.decode(bytes(data))


def test_decode_rejects_truncated_body():
    data = P.encode(P.DataPacket(group="g", seq=1, payload=b"abcdef"))
    with pytest.raises(DecodeError):
        P.decode(data[:-3])


def test_decode_error_carries_data():
    try:
        P.decode(b"nope")
    except DecodeError as exc:
        assert exc.data == b"nope"
    else:  # pragma: no cover
        pytest.fail("expected DecodeError")


def test_nack_requires_sequences():
    with pytest.raises(EncodeError):
        P.encode(P.NackPacket(group="g", seqs=()))


def test_nack_enforces_max_batch():
    too_many = tuple(range(1, P.NackPacket.MAX_SEQS + 2))
    with pytest.raises(EncodeError):
        P.encode(P.NackPacket(group="g", seqs=too_many))


def test_oversized_payload_rejected():
    with pytest.raises(EncodeError):
        P.encode(P.DataPacket(group="g", seq=1, payload=b"x" * 70_000))


def test_oversized_group_rejected():
    with pytest.raises(EncodeError):
        P.encode(P.PrimaryQueryPacket(group="g" * 300))


def test_registry_rejects_duplicate_type():
    with pytest.raises(EncodeError):

        @P.register_packet
        class Dup(P.DataPacket):
            TYPE = P.PacketType.DATA

        del Dup  # pragma: no cover


def test_sequence_numbers_are_64_bit():
    packet = P.DataPacket(group="g", seq=2**63 + 5, payload=b"")
    assert P.decode(P.encode(packet)).seq == 2**63 + 5


def test_p_ack_round_trips_exactly():
    packet = P.AckerSelectPacket(group="g", epoch=1, p_ack=1.0 / 3.0, k=5)
    assert P.decode(P.encode(packet)).p_ack == pytest.approx(1.0 / 3.0, abs=0)


def test_heartbeat_zero_seq_legal():
    """A heartbeat before any data repeats sequence 0 (source idle)."""
    packet = P.HeartbeatPacket(group="g", seq=0, hb_index=4)
    assert P.decode(P.encode(packet)) == packet
