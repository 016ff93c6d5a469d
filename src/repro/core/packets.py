"""LBRM wire format.

Every protocol message is a frozen dataclass with a compact binary
encoding.  The common header is::

    0      2      3      4        5
    +------+------+------+--------+----------+------------------
    | 'LB' | ver  | type | grplen | group... | type-specific body
    +------+------+------+--------+----------+------------------

All integers are network byte order.  Sequence numbers are unsigned
64-bit and monotonically increasing per flow — at one packet per
millisecond that is ~584 million years before wrap, so no serial-number
arithmetic is needed (documented trade-off versus 32-bit + RFC 1982).

The simulator passes packet objects by reference (encode/decode is
exercised by tests and the asyncio transport), so a deployment and a
simulation run the exact same message vocabulary.

New packet types (e.g. the SRM baseline's messages) register themselves
with :func:`register_packet`, which keeps :func:`decode` a single entry
point for every transport.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from operator import attrgetter
from typing import Callable, ClassVar, Type, TypeVar

from repro.core.errors import DecodeError, EncodeError

__all__ = [
    "PacketType",
    "Packet",
    "DataPacket",
    "HeartbeatPacket",
    "NackPacket",
    "RetransPacket",
    "LogAckPacket",
    "AckerSelectPacket",
    "AckerResponsePacket",
    "DataAckPacket",
    "ProbePacket",
    "ProbeReplyPacket",
    "DiscoveryQueryPacket",
    "DiscoveryReplyPacket",
    "ReplUpdatePacket",
    "ReplAckPacket",
    "PrimaryQueryPacket",
    "PrimaryInfoPacket",
    "PromotePacket",
    "ReplStatusQueryPacket",
    "encode",
    "decode",
    "decode_from",
    "encode_reference",
    "decode_reference",
    "encode_bundle",
    "iter_bundle",
    "is_bundle",
    "MAX_BUNDLE_FRAMES",
    "BUNDLE_OVERHEAD",
    "BUNDLE_FRAME_OVERHEAD",
    "register_packet",
]

_MAGIC = b"LB"
_VERSION = 1
_HEADER = struct.Struct("!2sBB")
_MAX_PAYLOAD = 0xFFFF
_MAX_STR = 0xFF


class PacketType(IntEnum):
    """Discriminator byte in the common header.

    Values 0–31 are reserved for the LBRM core; 32+ for extensions
    (baselines, applications).
    """

    DATA = 1
    HEARTBEAT = 2
    NACK = 3
    RETRANS = 4
    LOG_ACK = 5
    ACKER_SELECT = 6
    ACKER_RESPONSE = 7
    DATA_ACK = 8
    PROBE = 9
    PROBE_REPLY = 10
    DISCOVERY_QUERY = 11
    DISCOVERY_REPLY = 12
    REPL_UPDATE = 13
    REPL_ACK = 14
    PRIMARY_QUERY = 15
    PRIMARY_INFO = 16
    PROMOTE = 17
    REPL_STATUS_QUERY = 18
    # Extension range (registered by other modules).
    SRM_SESSION = 32
    SRM_REQUEST = 33
    SRM_REPAIR = 34
    POSACK_DATA = 40
    POSACK_ACK = 41


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > _MAX_STR:
        raise EncodeError(f"string too long for wire ({len(raw)} > {_MAX_STR})")
    return bytes([len(raw)]) + raw


def _unpack_str(buf: memoryview, offset: int) -> tuple[str, int]:
    if offset >= len(buf):
        raise DecodeError("truncated string length")
    length = buf[offset]
    end = offset + 1 + length
    if end > len(buf):
        raise DecodeError("truncated string body")
    try:
        return bytes(buf[offset + 1 : end]).decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise DecodeError(f"string is not UTF-8: {exc}") from None


def _pack_bytes(value: bytes) -> bytes:
    if len(value) > _MAX_PAYLOAD:
        raise EncodeError(f"payload too large ({len(value)} > {_MAX_PAYLOAD})")
    return struct.pack("!H", len(value)) + value


def _unpack_bytes(buf: memoryview, offset: int) -> tuple[bytes, int]:
    if offset + 2 > len(buf):
        raise DecodeError("truncated payload length")
    (length,) = struct.unpack_from("!H", buf, offset)
    end = offset + 2 + length
    if end > len(buf):
        raise DecodeError("truncated payload body")
    return bytes(buf[offset + 2 : end]), end


@dataclass(frozen=True, slots=True)
class Packet:
    """Base class: every LBRM message belongs to a multicast group."""

    group: str

    TYPE: ClassVar[PacketType]

    def encode_body(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "Packet":
        raise NotImplementedError


_REGISTRY: dict[int, Type[Packet]] = {}

P = TypeVar("P", bound=Type[Packet])


def register_packet(cls: P) -> P:
    """Class decorator adding ``cls`` to the wire-format registry.

    ``cls`` must declare a ``WIRE`` spec (else :class:`EncodeError`): the
    struct codec compiled from it (see :func:`_compile_struct_codec`) is
    the only one :func:`encode`/:func:`decode` dispatch to.
    """
    ptype = int(cls.TYPE)
    existing = _REGISTRY.get(ptype)
    if existing is not None and existing is not cls:
        raise EncodeError(f"packet type {ptype} already registered to {existing.__name__}")
    _compile_struct_codec(cls)
    _REGISTRY[ptype] = cls
    return cls


# -- struct codecs -----------------------------------------------------------
#
# Every packet class declares ``WIRE``: a tuple of ``(field_name, kind)``
# pairs in *wire* order, from which one precompiled :class:`struct.Struct`
# codec is built at registration time.  That codec is the runtime.  The
# per-field ``encode_body`` / ``decode_body`` methods are the executable
# conformance specification, reached only through
# :func:`encode_reference` / :func:`decode_reference` — the property
# suite fuzzes every registered type and asserts both produce identical
# bytes and identical values, and both reject truncated or
# garbage-suffixed datagrams with :class:`DecodeError`
# (tests/property/test_codec_conformance.py).
#
# Allowed shape: any run of fixed-width fields plus at most one
# variable-length field ("str", "bytes", or "u64seq"), which must be last.

_FIXED_FMT = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "f64": "d"}
_VARIABLE_KINDS = frozenset({"str", "bytes", "u64seq"})

_STRUCT_ENCODERS: dict[type, Callable] = {}
_STRUCT_DECODERS: dict[int, Callable] = {}

_U16 = struct.Struct("!H")
# One precompiled "!H{n}Q" per distinct sequence-list length seen;
# bounded by MAX_SEQS in practice (counts are validated before lookup).
_U64SEQ_STRUCTS: dict[int, struct.Struct] = {}


def _u64seq_struct(count: int) -> struct.Struct:
    st = _U64SEQ_STRUCTS.get(count)
    if st is None:
        st = _U64SEQ_STRUCTS[count] = struct.Struct(f"!H{count}Q")
    return st


def _compile_struct_codec(cls: Type[Packet]) -> None:
    """Build and register the precompiled codec pair for ``cls.WIRE``."""
    wire = cls.__dict__.get("WIRE")
    if wire is None:
        raise EncodeError(f"{cls.__name__} declares no WIRE spec")
    tname = cls.TYPE.name
    fixed_names: list[str] = []
    fmt = "!"
    tail_name: str | None = None
    tail_kind: str | None = None
    for name, kind in wire:
        if tail_kind is not None:
            raise EncodeError(f"{cls.__name__}.WIRE: variable-length field must be last")
        if kind in _VARIABLE_KINDS:
            tail_name, tail_kind = name, kind
        elif kind in _FIXED_FMT:
            fmt += _FIXED_FMT[kind]
            fixed_names.append(name)
        else:
            raise EncodeError(f"{cls.__name__}.WIRE: unknown field kind {kind!r}")

    # The 4-byte header is constant per class; group headers (header +
    # length-prefixed UTF-8 group) are memoized since deployments speak a
    # handful of groups across millions of packets.
    prefix = _HEADER.pack(_MAGIC, _VERSION, int(cls.TYPE))
    heads: dict[str, bytes] = {}

    def _head(group: str) -> bytes:
        head = heads.get(group)
        if head is None:
            raw = group.encode("utf-8")
            if len(raw) > _MAX_STR:
                raise EncodeError(f"string too long for wire ({len(raw)} > {_MAX_STR})")
            head = prefix + bytes((len(raw),)) + raw
            if len(heads) < 1024:
                heads[group] = head
        return head

    if not fixed_names:
        gfix = None
    elif len(fixed_names) == 1:
        _g1 = attrgetter(fixed_names[0])

        def gfix(p, _g1=_g1):
            return (_g1(p),)

    else:
        gfix = attrgetter(*fixed_names)

    # Decoders construct positionally (kwargs cost ~300 ns per call on a
    # frozen slots dataclass): arg_src maps each constructor position
    # after ``group`` to its index in the unpacked fixed tuple, or -1 for
    # the variable tail.  This doubles as the spec check that WIRE names
    # exactly the non-group fields.
    wire_names = set(fixed_names) | ({tail_name} if tail_name is not None else set())
    arg_src: list[int] = []
    for f in fields(cls):
        if f.name == "group":
            continue
        if f.name == tail_name:
            arg_src.append(-1)
        elif f.name in wire_names:
            arg_src.append(fixed_names.index(f.name))
        else:
            raise EncodeError(f"{cls.__name__}.WIRE: field {f.name!r} missing from spec")
    if len(arg_src) != len(fixed_names) + (tail_name is not None):
        raise EncodeError(f"{cls.__name__}.WIRE: spec names a non-field")

    if tail_kind is None:
        if arg_src != list(range(len(arg_src))):
            raise EncodeError(f"{cls.__name__}.WIRE: fixed fields must be in constructor order")
        body = struct.Struct(fmt)
        pack, unpack_from, size = body.pack, body.unpack_from, body.size

        if gfix is None:

            def enc(p):
                return _head(p.group)

        else:

            def enc(p):
                return _head(p.group) + pack(*gfix(p))

        def dec(data, off, group):
            if len(data) != off + size:
                raise DecodeError(f"bad {tname} body length", data)
            return cls(group, *unpack_from(data, off))

    elif tail_kind == "bytes":
        body = struct.Struct(fmt + "H")
        pack, unpack_from, size = body.pack, body.unpack_from, body.size
        gtail = attrgetter(tail_name)

        def enc(p):
            payload = gtail(p)
            n = len(payload)
            if n > _MAX_PAYLOAD:
                raise EncodeError(f"payload too large ({n} > {_MAX_PAYLOAD})")
            if gfix is None:
                return _head(p.group) + pack(n) + payload
            return _head(p.group) + pack(*gfix(p), n) + payload

        def dec(data, off, group):
            fend = off + size
            if len(data) < fend:
                raise DecodeError(f"truncated {tname} body", data)
            vals = unpack_from(data, off)
            end = fend + vals[-1]
            if len(data) != end:
                raise DecodeError(f"bad {tname} payload length", data)
            # bytes() materializes only the payload when ``data`` is a
            # memoryview (the zero-copy decode_from path); on the bytes
            # path the slice already is the copy and bytes() is identity.
            tailv = bytes(data[fend:end])
            return cls(group, *[tailv if i < 0 else vals[i] for i in arg_src])

    elif tail_kind == "str":
        body = struct.Struct(fmt + "B")
        pack, unpack_from, size = body.pack, body.unpack_from, body.size
        gtail = attrgetter(tail_name)

        def enc(p):
            raw = gtail(p).encode("utf-8")
            n = len(raw)
            if n > _MAX_STR:
                raise EncodeError(f"string too long for wire ({n} > {_MAX_STR})")
            if gfix is None:
                return _head(p.group) + pack(n) + raw
            return _head(p.group) + pack(*gfix(p), n) + raw

        def dec(data, off, group):
            fend = off + size
            if len(data) < fend:
                raise DecodeError(f"truncated {tname} body", data)
            vals = unpack_from(data, off)
            end = fend + vals[-1]
            if len(data) != end:
                raise DecodeError(f"bad {tname} string length", data)
            try:
                # str(buf, "utf-8") accepts memoryview slices directly
                # (decode_from), with the same UnicodeDecodeError contract
                # as bytes.decode on the plain-bytes path.
                tailv = str(data[fend:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError(f"{tname} string is not UTF-8: {exc}", data) from None
            return cls(group, *[tailv if i < 0 else vals[i] for i in arg_src])

    else:  # u64seq
        body = struct.Struct(fmt)
        pack, unpack_from, size = body.pack, body.unpack_from, body.size
        gtail = attrgetter(tail_name)
        maxn = getattr(cls, "MAX_SEQS", 0xFFFF)

        def enc(p):
            seqs = gtail(p)
            n = len(seqs)
            if n == 0:
                raise EncodeError(f"{tname} must request at least one sequence")
            if n > maxn:
                raise EncodeError(f"{tname} limited to {maxn} sequences")
            if gfix is None:
                return _head(p.group) + _u64seq_struct(n).pack(n, *seqs)
            return _head(p.group) + pack(*gfix(p)) + _u64seq_struct(n).pack(n, *seqs)

        def dec(data, off, group):
            fend = off + size
            if len(data) < fend + 2:
                raise DecodeError(f"truncated {tname} body", data)
            (n,) = _U16.unpack_from(data, fend)
            if n == 0 or n > maxn:
                raise DecodeError(f"bad {tname} count {n}", data)
            if len(data) != fend + 2 + 8 * n:
                raise DecodeError(f"bad {tname} sequence list length", data)
            tailv = _u64seq_struct(n).unpack_from(data, fend)[1:]
            if not arg_src == [-1]:
                vals = unpack_from(data, off)
                return cls(group, *[tailv if i < 0 else vals[i] for i in arg_src])
            return cls(group, tailv)

    _STRUCT_ENCODERS[cls] = enc
    _STRUCT_DECODERS[int(cls.TYPE)] = dec


@register_packet
@dataclass(frozen=True, slots=True)
class DataPacket(Packet):
    """Original application data multicast by the source (§2).

    ``epoch`` ties the packet to the statistical-acknowledgement epoch so
    Designated Ackers know whether they must acknowledge it (§2.3.1).
    """

    seq: int
    payload: bytes
    epoch: int = 0

    TYPE: ClassVar[PacketType] = PacketType.DATA
    WIRE: ClassVar[tuple] = (("seq", "u64"), ("epoch", "u32"), ("payload", "bytes"))

    def encode_body(self) -> bytes:
        return struct.pack("!QI", self.seq, self.epoch) + _pack_bytes(self.payload)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "DataPacket":
        if len(buf) < 12:
            raise DecodeError("truncated DATA body")
        seq, epoch = struct.unpack_from("!QI", buf, 0)
        payload, end = _unpack_bytes(buf, 12)
        if end != len(buf):
            raise DecodeError("trailing garbage after DATA body")
        return cls(group=group, seq=seq, payload=payload, epoch=epoch)


@register_packet
@dataclass(frozen=True, slots=True)
class HeartbeatPacket(Packet):
    """Keep-alive repeating the last data sequence number (§2).

    ``hb_index`` counts heartbeats since that data packet (Appendix A's
    ``TRANS:17.12:HEARTBEAT`` is sequence 17, index 12) and lets
    receivers de-duplicate and reason about the backoff schedule.
    """

    seq: int
    hb_index: int
    epoch: int = 0

    TYPE: ClassVar[PacketType] = PacketType.HEARTBEAT
    WIRE: ClassVar[tuple] = (("seq", "u64"), ("hb_index", "u32"), ("epoch", "u32"))

    def encode_body(self) -> bytes:
        return struct.pack("!QII", self.seq, self.hb_index, self.epoch)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "HeartbeatPacket":
        if len(buf) != 16:
            raise DecodeError("bad HEARTBEAT body length")
        seq, hb_index, epoch = struct.unpack_from("!QII", buf, 0)
        return cls(group=group, seq=seq, hb_index=hb_index, epoch=epoch)


@register_packet
@dataclass(frozen=True, slots=True)
class NackPacket(Packet):
    """Retransmission request listing missing sequence numbers.

    Sent by a receiver to its secondary logger, or by a secondary logger
    upstream to the primary (§2.2.1).  Bounded to 64 sequence numbers per
    packet; longer loss runs are requested in batches.
    """

    seqs: tuple[int, ...]

    TYPE: ClassVar[PacketType] = PacketType.NACK
    MAX_SEQS: ClassVar[int] = 64
    WIRE: ClassVar[tuple] = (("seqs", "u64seq"),)

    def encode_body(self) -> bytes:
        if not self.seqs:
            raise EncodeError("NACK must request at least one sequence")
        if len(self.seqs) > self.MAX_SEQS:
            raise EncodeError(f"NACK limited to {self.MAX_SEQS} sequences")
        return struct.pack("!H", len(self.seqs)) + struct.pack(f"!{len(self.seqs)}Q", *self.seqs)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "NackPacket":
        if len(buf) < 2:
            raise DecodeError("truncated NACK body")
        (count,) = struct.unpack_from("!H", buf, 0)
        if count == 0 or count > cls.MAX_SEQS:
            raise DecodeError(f"bad NACK count {count}")
        if len(buf) != 2 + 8 * count:
            raise DecodeError("bad NACK sequence list length")
        seqs = struct.unpack_from(f"!{count}Q", buf, 2)
        return cls(group=group, seqs=tuple(seqs))


@register_packet
@dataclass(frozen=True, slots=True)
class RetransPacket(Packet):
    """Retransmission of a logged data packet.

    Distinct from :class:`DataPacket` so receivers can account recovery
    traffic separately (the paper's RETRANS vs TRANS tags, Appendix A).
    """

    seq: int
    payload: bytes
    epoch: int = 0

    TYPE: ClassVar[PacketType] = PacketType.RETRANS
    WIRE: ClassVar[tuple] = (("seq", "u64"), ("epoch", "u32"), ("payload", "bytes"))

    def encode_body(self) -> bytes:
        return struct.pack("!QI", self.seq, self.epoch) + _pack_bytes(self.payload)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "RetransPacket":
        if len(buf) < 12:
            raise DecodeError("truncated RETRANS body")
        seq, epoch = struct.unpack_from("!QI", buf, 0)
        payload, end = _unpack_bytes(buf, 12)
        if end != len(buf):
            raise DecodeError("trailing garbage after RETRANS body")
        return cls(group=group, seq=seq, payload=payload, epoch=epoch)


@register_packet
@dataclass(frozen=True, slots=True)
class LogAckPacket(Packet):
    """Primary logger → source acknowledgement (§2.2.3).

    Carries both the primary logger sequence number (source may release
    its application buffer and keep processing) and the replicated
    logger sequence number (source may discard data only up to here).
    ``log_epoch`` is the promotion term the acking logger believes it is
    primary for; the source ignores ACKs from a stale epoch (0 = the
    pre-epoch wire form, accepted for compatibility).
    """

    primary_seq: int
    replica_seq: int
    log_epoch: int = 0

    TYPE: ClassVar[PacketType] = PacketType.LOG_ACK
    WIRE: ClassVar[tuple] = (
        ("primary_seq", "u64"),
        ("replica_seq", "u64"),
        ("log_epoch", "u32"),
    )

    def encode_body(self) -> bytes:
        return struct.pack("!QQI", self.primary_seq, self.replica_seq, self.log_epoch)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "LogAckPacket":
        if len(buf) != 20:
            raise DecodeError("bad LOG_ACK body length")
        primary_seq, replica_seq, log_epoch = struct.unpack_from("!QQI", buf, 0)
        return cls(
            group=group, primary_seq=primary_seq, replica_seq=replica_seq, log_epoch=log_epoch
        )


@register_packet
@dataclass(frozen=True, slots=True)
class AckerSelectPacket(Packet):
    """Acker Selection Packet starting a new epoch (§2.3.1).

    Each secondary logger answers with probability ``p_ack``; responders
    become the epoch's Designated Ackers.
    """

    epoch: int
    p_ack: float
    k: int

    TYPE: ClassVar[PacketType] = PacketType.ACKER_SELECT
    WIRE: ClassVar[tuple] = (("epoch", "u32"), ("p_ack", "f64"), ("k", "u32"))

    def encode_body(self) -> bytes:
        return struct.pack("!IdI", self.epoch, self.p_ack, self.k)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "AckerSelectPacket":
        if len(buf) != 16:
            raise DecodeError("bad ACKER_SELECT body length")
        epoch, p_ack, k = struct.unpack_from("!IdI", buf, 0)
        return cls(group=group, epoch=epoch, p_ack=p_ack, k=k)


@register_packet
@dataclass(frozen=True, slots=True)
class AckerResponsePacket(Packet):
    """A secondary logger volunteering as Designated Acker for ``epoch``."""

    epoch: int

    TYPE: ClassVar[PacketType] = PacketType.ACKER_RESPONSE
    WIRE: ClassVar[tuple] = (("epoch", "u32"),)

    def encode_body(self) -> bytes:
        return struct.pack("!I", self.epoch)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "AckerResponsePacket":
        if len(buf) != 4:
            raise DecodeError("bad ACKER_RESPONSE body length")
        (epoch,) = struct.unpack_from("!I", buf, 0)
        return cls(group=group, epoch=epoch)


@register_packet
@dataclass(frozen=True, slots=True)
class DataAckPacket(Packet):
    """Designated Acker → source per-data-packet acknowledgement."""

    epoch: int
    seq: int

    TYPE: ClassVar[PacketType] = PacketType.DATA_ACK
    WIRE: ClassVar[tuple] = (("epoch", "u32"), ("seq", "u64"))

    def encode_body(self) -> bytes:
        return struct.pack("!IQ", self.epoch, self.seq)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "DataAckPacket":
        if len(buf) != 12:
            raise DecodeError("bad DATA_ACK body length")
        epoch, seq = struct.unpack_from("!IQ", buf, 0)
        return cls(group=group, epoch=epoch, seq=seq)


@register_packet
@dataclass(frozen=True, slots=True)
class ProbePacket(Packet):
    """Bolot-style group-size probe (§2.3.3): answer with prob ``p_ack``."""

    probe_id: int
    p_ack: float

    TYPE: ClassVar[PacketType] = PacketType.PROBE
    WIRE: ClassVar[tuple] = (("probe_id", "u32"), ("p_ack", "f64"))

    def encode_body(self) -> bytes:
        return struct.pack("!Id", self.probe_id, self.p_ack)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "ProbePacket":
        if len(buf) != 12:
            raise DecodeError("bad PROBE body length")
        probe_id, p_ack = struct.unpack_from("!Id", buf, 0)
        return cls(group=group, probe_id=probe_id, p_ack=p_ack)


@register_packet
@dataclass(frozen=True, slots=True)
class ProbeReplyPacket(Packet):
    """Probabilistic reply to a :class:`ProbePacket`."""

    probe_id: int

    TYPE: ClassVar[PacketType] = PacketType.PROBE_REPLY
    WIRE: ClassVar[tuple] = (("probe_id", "u32"),)

    def encode_body(self) -> bytes:
        return struct.pack("!I", self.probe_id)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "ProbeReplyPacket":
        if len(buf) != 4:
            raise DecodeError("bad PROBE_REPLY body length")
        (probe_id,) = struct.unpack_from("!I", buf, 0)
        return cls(group=group, probe_id=probe_id)


@register_packet
@dataclass(frozen=True, slots=True)
class DiscoveryQueryPacket(Packet):
    """Expanding-ring scoped-multicast query for a nearby logger (§2.2.1)."""

    ttl: int

    TYPE: ClassVar[PacketType] = PacketType.DISCOVERY_QUERY
    WIRE: ClassVar[tuple] = (("ttl", "u16"),)

    def encode_body(self) -> bytes:
        return struct.pack("!H", self.ttl)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "DiscoveryQueryPacket":
        if len(buf) != 2:
            raise DecodeError("bad DISCOVERY_QUERY body length")
        (ttl,) = struct.unpack_from("!H", buf, 0)
        return cls(group=group, ttl=ttl)


@register_packet
@dataclass(frozen=True, slots=True)
class DiscoveryReplyPacket(Packet):
    """A logger answering discovery: its address token and hierarchy level
    (0 = primary, 1 = site secondary, …)."""

    logger_addr: str
    level: int

    TYPE: ClassVar[PacketType] = PacketType.DISCOVERY_REPLY
    WIRE: ClassVar[tuple] = (("level", "u16"), ("logger_addr", "str"))

    def encode_body(self) -> bytes:
        return struct.pack("!H", self.level) + _pack_str(self.logger_addr)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "DiscoveryReplyPacket":
        if len(buf) < 2:
            raise DecodeError("truncated DISCOVERY_REPLY body")
        (level,) = struct.unpack_from("!H", buf, 0)
        logger_addr, end = _unpack_str(buf, 2)
        if end != len(buf):
            raise DecodeError("trailing garbage after DISCOVERY_REPLY body")
        return cls(group=group, logger_addr=logger_addr, level=level)


@register_packet
@dataclass(frozen=True, slots=True)
class ReplUpdatePacket(Packet):
    """Primary → follower log-entry push (§2.2.3).

    Also reused source → promoted-replica during failover to hand over
    buffered packets the failed primary never replicated.
    ``log_epoch`` stamps the pushing primary's promotion term (followers
    reject pushes from a stale term); ``commit_seq`` piggybacks the
    primary's current commit point so followers learn how far the group
    has durably committed without extra control traffic.
    """

    seq: int
    payload: bytes
    log_epoch: int = 0
    commit_seq: int = 0

    TYPE: ClassVar[PacketType] = PacketType.REPL_UPDATE
    WIRE: ClassVar[tuple] = (
        ("seq", "u64"),
        ("log_epoch", "u32"),
        ("commit_seq", "u64"),
        ("payload", "bytes"),
    )

    def encode_body(self) -> bytes:
        return struct.pack("!QIQ", self.seq, self.log_epoch, self.commit_seq) + _pack_bytes(
            self.payload
        )

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "ReplUpdatePacket":
        if len(buf) < 20:
            raise DecodeError("truncated REPL_UPDATE body")
        seq, log_epoch, commit_seq = struct.unpack_from("!QIQ", buf, 0)
        payload, end = _unpack_bytes(buf, 20)
        if end != len(buf):
            raise DecodeError("trailing garbage after REPL_UPDATE body")
        return cls(
            group=group, seq=seq, payload=payload, log_epoch=log_epoch, commit_seq=commit_seq
        )


@register_packet
@dataclass(frozen=True, slots=True)
class ReplAckPacket(Packet):
    """Follower → primary cumulative acknowledgement.

    ``cum_seq`` is the highest sequence such that the follower *durably
    holds* every packet ≤ ``cum_seq`` (a contiguous prefix — received
    but gapped packets do not count); 2**64-1 is reserved as the
    "nothing yet" sentinel (encoded) but exposed as ``cum_seq is None``
    in the replication API.  ``log_epoch`` is the highest promotion term
    the follower has seen, and ``commit_seq`` its *committed* prefix —
    ``min(learned commit point, own contiguous prefix)`` — used as the
    promotion tie-break during failover.
    """

    cum_seq: int
    log_epoch: int = 0
    commit_seq: int = 0

    TYPE: ClassVar[PacketType] = PacketType.REPL_ACK
    WIRE: ClassVar[tuple] = (
        ("cum_seq", "u64"),
        ("log_epoch", "u32"),
        ("commit_seq", "u64"),
    )

    def encode_body(self) -> bytes:
        return struct.pack("!QIQ", self.cum_seq, self.log_epoch, self.commit_seq)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "ReplAckPacket":
        if len(buf) != 20:
            raise DecodeError("bad REPL_ACK body length")
        cum_seq, log_epoch, commit_seq = struct.unpack_from("!QIQ", buf, 0)
        return cls(group=group, cum_seq=cum_seq, log_epoch=log_epoch, commit_seq=commit_seq)


@register_packet
@dataclass(frozen=True, slots=True)
class PrimaryQueryPacket(Packet):
    """Receiver/secondary → source: "who is the primary logger now?"

    Sent when the cached primary address stops responding (§2.2.3).
    """

    TYPE: ClassVar[PacketType] = PacketType.PRIMARY_QUERY
    WIRE: ClassVar[tuple] = ()

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "PrimaryQueryPacket":
        if len(buf):
            raise DecodeError("trailing garbage after PRIMARY_QUERY header")
        return cls(group=group)


@register_packet
@dataclass(frozen=True, slots=True)
class PrimaryInfoPacket(Packet):
    """Source → asker: current primary logger address token."""

    primary_addr: str

    TYPE: ClassVar[PacketType] = PacketType.PRIMARY_INFO
    WIRE: ClassVar[tuple] = (("primary_addr", "str"),)

    def encode_body(self) -> bytes:
        return _pack_str(self.primary_addr)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "PrimaryInfoPacket":
        primary_addr, end = _unpack_str(buf, 0)
        if end != len(buf):
            raise DecodeError("trailing garbage after PRIMARY_INFO body")
        return cls(group=group, primary_addr=primary_addr)


@register_packet
@dataclass(frozen=True, slots=True)
class PromotePacket(Packet):
    """Source → replica: become the primary; serve from ``from_seq``.

    ``log_epoch`` is the new promotion term (strictly greater than every
    term the group has used); ``members`` carries the surviving replica
    membership as comma-joined address tokens, so the promoted primary
    adopts them as its followers and keeps the commit point replicated
    instead of falling back to a single-copy log.
    """

    from_seq: int
    log_epoch: int = 0
    members: str = ""

    TYPE: ClassVar[PacketType] = PacketType.PROMOTE
    WIRE: ClassVar[tuple] = (
        ("from_seq", "u64"),
        ("log_epoch", "u32"),
        ("members", "str"),
    )

    def encode_body(self) -> bytes:
        return struct.pack("!QI", self.from_seq, self.log_epoch) + _pack_str(self.members)

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "PromotePacket":
        if len(buf) < 12:
            raise DecodeError("truncated PROMOTE body")
        from_seq, log_epoch = struct.unpack_from("!QI", buf, 0)
        members, end = _unpack_str(buf, 12)
        if end != len(buf):
            raise DecodeError("trailing garbage after PROMOTE body")
        return cls(group=group, from_seq=from_seq, log_epoch=log_epoch, members=members)


@register_packet
@dataclass(frozen=True, slots=True)
class ReplStatusQueryPacket(Packet):
    """Source → replica during failover: "report your cumulative log seq".

    The replica answers with a :class:`ReplAckPacket`; the source then
    promotes the most up-to-date replica (§2.2.3).
    """

    TYPE: ClassVar[PacketType] = PacketType.REPL_STATUS_QUERY
    WIRE: ClassVar[tuple] = ()

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, group: str, buf: memoryview) -> "ReplStatusQueryPacket":
        if len(buf):
            raise DecodeError("trailing garbage after REPL_STATUS_QUERY header")
        return cls(group=group)


def encode(packet: Packet) -> bytes:
    """Serialize ``packet`` to its wire representation."""
    enc = _STRUCT_ENCODERS.get(type(packet))
    if enc is None:
        raise EncodeError(f"{type(packet).__name__} is not a registered packet type")
    return enc(packet)


def encode_reference(packet: Packet) -> bytes:
    """Conformance oracle for :func:`encode`: per-field ``encode_body``."""
    header = _HEADER.pack(_MAGIC, _VERSION, int(packet.TYPE))
    return header + _pack_str(packet.group) + packet.encode_body()


def decode(data: bytes) -> Packet:
    """Parse a datagram back into a packet object.

    Raises :class:`~repro.core.errors.DecodeError` on any malformed
    input; transports should count and drop such datagrams rather than
    crash (errors should never pass silently, but a multicast socket is
    a public place).  ``bytearray``/``memoryview`` input is accepted and
    normalized to ``bytes``; :func:`decode_from` is the entry point that
    parses straight out of a caller-owned buffer without that copy.
    """
    if type(data) is not bytes:
        data = bytes(data)
    return _decode_view(data)


def decode_from(buf, offset: int = 0, length: int | None = None) -> Packet:
    """Decode one packet straight out of ``buf[offset:offset+length]``.

    Zero-copy entry point for transports that receive into preallocated
    buffers (``recvfrom_into``) or walk bundled datagrams
    (:func:`iter_bundle`): the header and fixed fields are parsed in
    place via ``unpack_from`` and only variable-length tails (payload,
    strings) are materialized into the returned packet object.  The
    result is indistinguishable from ``decode(bytes(...))`` — the buffer
    may be reused immediately after the call returns.
    """
    view = memoryview(buf)
    if offset or length is not None:
        end = len(view) if length is None else offset + length
        view = view[offset:end]
    return _decode_view(view)


def decode_reference(data: bytes) -> Packet:
    """Conformance oracle for :func:`decode`: same header and
    group parse, then the class's per-field ``decode_body``."""
    return _decode_view(bytes(data), reference=True)


# One-entry group-name memo for the RX hot path: a receive socket sees
# the same group on (nearly) every packet, and memoryview == bytes is a
# C-level compare — so a hit replaces the per-packet UTF-8 decode and
# str allocation.  Deliberately a single entry: no hashing, no eviction,
# and a miss costs one comparison.
_LAST_GROUP_RAW: bytes = b"\xff"  # never equals valid UTF-8 group bytes
_LAST_GROUP: str = ""


def _decode_view(data, reference: bool = False) -> Packet:
    """Shared datagram parse over any buffer (``bytes`` or memoryview)."""
    global _LAST_GROUP_RAW, _LAST_GROUP
    n = len(data)
    if n < _HEADER.size:
        raise DecodeError("datagram shorter than header", bytes(data))
    magic, version, ptype = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise DecodeError(f"bad magic {magic!r}", bytes(data))
    if version != _VERSION:
        raise DecodeError(f"unsupported version {version}", bytes(data))
    dec = _STRUCT_DECODERS.get(ptype)
    if dec is None:
        raise DecodeError(f"unknown packet type {ptype}", bytes(data))
    if n < 5:
        raise DecodeError("truncated string length", bytes(data))
    end = 5 + data[4]
    if end > n:
        raise DecodeError("truncated string body", bytes(data))
    raw = data[5:end]
    if raw == _LAST_GROUP_RAW:
        group = _LAST_GROUP
    else:
        try:
            group = str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"group is not UTF-8: {exc}", bytes(data)) from None
        _LAST_GROUP_RAW, _LAST_GROUP = bytes(raw), group
    if reference:
        return _REGISTRY[ptype].decode_body(group, memoryview(data)[end:])
    return dec(data, end, group)


# -- bundle framing -----------------------------------------------------------
#
# The aio transport coalesces many logical packets into one datagram to
# amortize per-datagram cost (syscall, event-loop wakeup) — the modern
# twin of DIS-era PDU bundling.  A bundle is a distinct wire object with
# its own magic (``Lb``, never confusable with a packet's ``LB``)::
#
#     0      2      3       4
#     +------+------+-------+--[ count frames ]-------------------
#     | 'Lb' | ver  | count | u16 len | datagram | u16 len | ...
#     +------+------+-------+-------------------------------------
#
# Each frame is one complete single-packet datagram, byte-identical to
# what an unbundled send would have put on the wire — so a bundle is
# pure framing, and turning bundling off changes nothing but the
# grouping.  :func:`iter_bundle` returns zero-copy memoryview slices;
# pair it with :func:`decode_from` to parse packets straight out of a
# receive buffer.

_BUNDLE_MAGIC = b"Lb"
_BUNDLE_HEADER = struct.Struct("!2sBB")
_BM0, _BM1 = _BUNDLE_MAGIC
MAX_BUNDLE_FRAMES = 255
BUNDLE_OVERHEAD = _BUNDLE_HEADER.size  # plus 2 bytes framing per packet
BUNDLE_FRAME_OVERHEAD = 2


def is_bundle(data) -> bool:
    """True when ``data`` starts with the bundle magic.

    Works on ``bytes``, ``bytearray``, and ``memoryview`` without
    copying; a transport's receive path calls this once per datagram to
    pick between :func:`decode_from` and :func:`iter_bundle`.
    """
    return len(data) >= 2 and data[0] == _BM0 and data[1] == _BM1


def encode_bundle(wires) -> bytes:
    """Frame already-encoded datagrams into one bundle datagram.

    ``wires`` is a non-empty sequence of at most ``MAX_BUNDLE_FRAMES``
    encoded packets (each ≤ 65535 bytes).  The caller owns the MTU
    budget: this function frames whatever it is given.
    """
    count = len(wires)
    if count == 0:
        raise EncodeError("bundle must carry at least one datagram")
    if count > MAX_BUNDLE_FRAMES:
        raise EncodeError(f"bundle limited to {MAX_BUNDLE_FRAMES} datagrams")
    parts = [_BUNDLE_HEADER.pack(_BUNDLE_MAGIC, _VERSION, count)]
    for wire in wires:
        n = len(wire)
        if n > _MAX_PAYLOAD:
            raise EncodeError(f"bundled datagram too large ({n} > {_MAX_PAYLOAD})")
        parts.append(_U16.pack(n))
        parts.append(wire)
    return b"".join(parts)


def iter_bundle(data) -> list:
    """Split a bundle datagram into zero-copy per-packet memoryviews.

    Validates the whole frame table eagerly — truncated or corrupt
    input always raises :class:`~repro.core.errors.DecodeError` before
    any slice is returned, so a partial bundle never half-dispatches.
    The returned slices alias ``data``: decode them (or copy) before the
    underlying receive buffer is reused.
    """
    view = memoryview(data)
    n = len(view)
    if n < _BUNDLE_HEADER.size:
        raise DecodeError("bundle shorter than header", bytes(view))
    magic, version, count = _BUNDLE_HEADER.unpack_from(view, 0)
    if magic != _BUNDLE_MAGIC:
        raise DecodeError(f"bad bundle magic {magic!r}", bytes(view))
    if version != _VERSION:
        raise DecodeError(f"unsupported bundle version {version}", bytes(view))
    if count == 0:
        raise DecodeError("empty bundle", bytes(view))
    frames = []
    off = _BUNDLE_HEADER.size
    for _ in range(count):
        if off + 2 > n:
            raise DecodeError("truncated bundle frame length", bytes(view))
        (flen,) = _U16.unpack_from(view, off)
        off += 2
        if off + flen > n:
            raise DecodeError("truncated bundle frame body", bytes(view))
        frames.append(view[off:off + flen])
        off += flen
    if off != n:
        raise DecodeError("trailing garbage after bundle", bytes(view))
    return frames


# -- frozen-benchmark surface ----------------------------------------------------
#
# There is no codec memo (DESIGN §6).  benchmarks/ledger/** still reads
# these three names and may not be edited by a PR that claims a gain;
# they go when the next `benchmark` PR drops the calls (ROADMAP item 1a).

encode_uncached = encode  # benchmarks/ledger/tracing.py wraps it by name


def codec_cache_stats() -> dict:
    """All zeros: benchmarks/ledger/workloads.py derives hit ratios from it."""
    return {side: {"hits": 0, "misses": 0, "size": 0} for side in ("encode", "decode")}


def clear_codec_caches() -> None:
    """No-op: benchmarks/ledger/workloads.py calls it before every unit."""
