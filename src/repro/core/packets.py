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
from dataclasses import MISSING, dataclass, fields
from enum import IntEnum
from types import MemberDescriptorType
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


@dataclass(frozen=True, slots=True)
class Packet:
    """Base class: every LBRM message belongs to a multicast group."""

    group: str

    TYPE: ClassVar[PacketType]


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
# pairs in *wire* order.  At registration :func:`_compile_struct_codec`
# writes it out as the source of three straight-line functions, compiled
# under the file name ``<codec ClassName>`` so profiles name the type:
#
# * ``enc(p)`` takes the group head (header + length-prefixed group) from
#   a per-class memo and makes one precompiled ``Struct.pack`` call on the
#   fields by name, e.g. ``pack(p.seq, p.epoch, n)``;
# * ``dec(data, off, group)`` unpacks into named locals, then builds the
#   packet with ``object.__new__`` and one slot-descriptor ``__set__`` per
#   field in constructor order;
# * ``__init__`` (the dataclass is ``init=False``) takes the dataclass's
#   parameters, order and defaults and makes the same ``__set__`` calls,
#   where a frozen dataclass's makes one ``object.__setattr__`` per field.
#   So a class with ``__post_init__``, a ``default_factory`` or a field
#   without a slot is refused.  The packet is still frozen, and
#   ``__eq__``/``__hash__``/``__repr__`` are the dataclass's own.
#
# ``WIRE`` is the format's specification, and the golden vectors in
# tests/data/wire_vectors.json pin it: valid, boundary and rejected
# encodings of every registered type, which
# tests/property/test_codec_conformance.py holds these codecs to, beside
# hypothesis round-trip and rejection laws.
#
# Allowed shape: any run of fixed-width fields plus at most one
# variable-length field ("str", "bytes", or "u64seq"), which must be last.

_FIXED_FMT = {"u8": "B", "u16": "H", "u32": "I", "u64": "Q", "f64": "d"}
# The length word a variable tail adds to the fixed struct: a u64seq's
# count and list are packed, and read, by the per-count structs below.
_TAIL_FMT = {"bytes": "H", "str": "B", "u64seq": ""}

_STRUCT_ENCODERS: dict[type, Callable] = {}
_STRUCT_DECODERS: dict[int, Callable] = {}

# The decode head table: a datagram's first ``5 + grplen`` bytes (header
# and group) -> (its type's decoder, the group str), stored only after a
# full validated parse, so a hit proves the header and the group's UTF-8.
# A stored key is exactly ``5 + key[4]`` bytes long, so a datagram cut
# short inside its group never matches one.  It keeps the first 1024 heads
# it sees, like the encoders' head memos, and empties when a codec compiles.
_DECODE_HEADS: dict[bytes, tuple[Callable, str]] = {}
_DECODE_HEADS_CAP = 1024

_U16 = struct.Struct("!H")
# Per sequence-list length seen, the bound ``pack`` of "!H{n}Q" (count and
# list) and ``unpack_from`` of "!{n}Q" (the list, read past the count);
# bounded by MAX_SEQS in practice (counts are validated before lookup).
_SEQ_PACKERS: dict[int, Callable] = {}
_SEQ_UNPACKERS: dict[int, Callable] = {}


def _per_count(table: dict, fmt: str, method: str, count: int) -> Callable:
    fn = table[count] = getattr(struct.Struct(fmt.format(count)), method)
    return fn


def _group_head(heads: dict[str, bytes], prefix: bytes, group: str) -> bytes:
    """A compiled encoder's head-memo miss: ``prefix`` + length + group.

    Deployments speak a handful of groups across millions of packets, so
    each class keeps the first 1024 it sees.
    """
    raw = group.encode("utf-8")
    if len(raw) > _MAX_STR:
        raise EncodeError(f"string too long for wire ({len(raw)} > {_MAX_STR})")
    head = prefix + bytes((len(raw),)) + raw
    if len(heads) < 1024:
        heads[group] = head
    return head


def _compile_struct_codec(cls: Type[Packet]) -> None:
    """Compile ``cls.WIRE`` into its straight-line ``enc``/``dec``/``__init__``
    and install them."""
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
        if kind in _TAIL_FMT:
            tail_name, tail_kind = name, kind
            fmt += _TAIL_FMT[kind]
        elif kind in _FIXED_FMT:
            fmt += _FIXED_FMT[kind]
            fixed_names.append(name)
        else:
            raise EncodeError(f"{cls.__name__}.WIRE: unknown field kind {kind!r}")

    # The spec check: arg_src maps each constructor position after
    # ``group`` to its index among the fixed fields, or -1 for the tail,
    # so WIRE must name exactly the non-group fields.
    wire_names = set(fixed_names) | ({tail_name} if tail_name is not None else set())
    ctor = [f.name for f in fields(cls)]
    arg_src: list[int] = []
    for name in ctor[1:]:
        if name == tail_name:
            arg_src.append(-1)
        elif name in wire_names:
            arg_src.append(fixed_names.index(name))
        else:
            raise EncodeError(f"{cls.__name__}.WIRE: field {name!r} missing from spec")
    if len(arg_src) != len(fixed_names) + (tail_name is not None):
        raise EncodeError(f"{cls.__name__}.WIRE: spec names a non-field")
    if tail_kind is None and arg_src != list(range(len(arg_src))):
        raise EncodeError(f"{cls.__name__}.WIRE: fixed fields must be in constructor order")
    if hasattr(cls, "__post_init__"):
        raise EncodeError(f"{cls.__name__} defines __post_init__, which decode would skip")

    body = struct.Struct(fmt)
    ns = {
        "EncodeError": EncodeError, "DecodeError": DecodeError, "_U16": _U16,
        "seq_pack": _SEQ_PACKERS, "seq_unpack": _SEQ_UNPACKERS, "_per_count": _per_count,
        "_group_head": _group_head, "heads": {},
        "prefix": _HEADER.pack(_MAGIC, _VERSION, int(cls.TYPE)),
        "pack": body.pack, "unpack_from": body.unpack_from, "new": object.__new__, "cls": cls,
    }
    params = []  # the constructor's, with each default bound as d_<field>
    for f in fields(cls):
        name = f.name
        slot = next((k.__dict__[name] for k in cls.__mro__ if name in k.__dict__), None)
        if type(slot) is not MemberDescriptorType:
            raise EncodeError(f"{cls.__name__}.{name} has no slot")
        if f.default_factory is not MISSING:
            raise EncodeError(f"{cls.__name__}.{name} has a default_factory, which __init__ skips")
        ns[f"set_{name}"], ns[f"d_{name}"] = slot.__set__, f.default
        params.append(name if f.default is MISSING else f"{name}=d_{name}")

    head = "(heads.get(p.group) or _group_head(heads, prefix, p.group))"
    fixed = [f"p.{name}" for name in fixed_names]
    pack_fixed = f" + pack({', '.join(fixed)})" if fixed else ""
    targets = "".join(f"f_{name}, " for name in fixed_names)
    unpack_fixed = [f"{targets}= unpack_from(data, off)"] if fixed else []
    if tail_kind is None:
        enc = [f"return {head}{pack_fixed}"]
        dec = [f"if len(data) != off + {body.size}:",
               f"    raise DecodeError('bad {tname} body length', data)", *unpack_fixed]
    elif tail_kind == "u64seq":
        maxn = getattr(cls, "MAX_SEQS", 0xFFFF)
        enc = [f"seqs = p.{tail_name}", "n = len(seqs)", "if n == 0:",
               f"    raise EncodeError('{tname} must request at least one sequence')",
               f"if n > {maxn}:", f"    raise EncodeError('{tname} limited to {maxn} sequences')",
               f"return {head}{pack_fixed} + (seq_pack.get(n) or _per_count(seq_pack, '!H{{}}Q', 'pack', n))(n, *seqs)"]
        dec = [f"fend = off + {body.size}", "if len(data) < fend + 2:",
               f"    raise DecodeError('truncated {tname} body', data)",
               "n, = _U16.unpack_from(data, fend)", f"if n == 0 or n > {maxn}:",
               f"    raise DecodeError(f'bad {tname} count {{n}}', data)",
               "if len(data) != fend + 2 + 8 * n:",
               f"    raise DecodeError('bad {tname} sequence list length', data)",
               f"f_{tail_name} = (seq_unpack.get(n)"
               " or _per_count(seq_unpack, '!{}Q', 'unpack_from', n))(data, fend + 2)",
               *unpack_fixed]
    else:  # a length-prefixed bytes or str tail after the fixed fields
        if tail_kind == "bytes":
            enc = [f"tail = p.{tail_name}", "n = len(tail)", f"if n > {_MAX_PAYLOAD}:",
                   f"    raise EncodeError(f'payload too large ({{n}} > {_MAX_PAYLOAD})')"]
            # bytes() materializes only the payload when ``data`` is a
            # memoryview (the zero-copy decode_from path); on the bytes
            # path the slice already is the copy and bytes() is identity.
            read = [f"f_{tail_name} = bytes(data[fend:end])"]
        else:
            enc = [f"tail = p.{tail_name}.encode('utf-8')", "n = len(tail)",
                   f"if n > {_MAX_STR}:",
                   f"    raise EncodeError(f'string too long for wire ({{n}} > {_MAX_STR})')"]
            # str(buf, "utf-8") accepts memoryview slices directly
            # (decode_from), with the same UnicodeDecodeError contract as
            # bytes.decode on the plain-bytes path.
            read = ["try:", f"    f_{tail_name} = str(data[fend:end], 'utf-8')",
                    "except UnicodeDecodeError as exc:",
                    f"    raise DecodeError(f'{tname} string is not UTF-8: {{exc}}', data) from None"]
        enc.append(f"return {head} + pack({', '.join(fixed + ['n'])}) + tail")
        what = "payload" if tail_kind == "bytes" else "string"
        dec = [f"fend = off + {body.size}", "if len(data) < fend:",
               f"    raise DecodeError('truncated {tname} body', data)",
               f"{targets}n, = unpack_from(data, off)",
               "end = fend + n", "if len(data) != end:",
               f"    raise DecodeError('bad {tname} {what} length', data)", *read]
    values = ["group"] + [f"f_{name}" for name in ctor[1:]]
    dec += ["p = new(cls)", *(f"set_{n}(p, {v})" for n, v in zip(ctor, values)), "return p"]
    init = [f"set_{n}(self, {n})" for n in ctor]
    src = "".join(f"def {sig}:\n    " + "\n    ".join(lines) + "\n\n" for sig, lines in (
        ("enc(p)", enc), ("dec(data, off, group)", dec),
        (f"__init__(self, {', '.join(params)})", init)))
    exec(compile(src, f"<codec {cls.__name__}>", "exec"), ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = ns["__init__"]
    _STRUCT_ENCODERS[cls] = ns["enc"]
    _STRUCT_DECODERS[int(cls.TYPE)] = ns["dec"]
    _DECODE_HEADS.clear()  # an entry may hold the decoder this one replaces


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class AckerResponsePacket(Packet):
    """A secondary logger volunteering as Designated Acker for ``epoch``."""

    epoch: int

    TYPE: ClassVar[PacketType] = PacketType.ACKER_RESPONSE
    WIRE: ClassVar[tuple] = (("epoch", "u32"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class DataAckPacket(Packet):
    """Designated Acker → source per-data-packet acknowledgement."""

    epoch: int
    seq: int

    TYPE: ClassVar[PacketType] = PacketType.DATA_ACK
    WIRE: ClassVar[tuple] = (("epoch", "u32"), ("seq", "u64"))


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class ProbePacket(Packet):
    """Bolot-style group-size probe (§2.3.3): answer with prob ``p_ack``."""

    probe_id: int
    p_ack: float

    TYPE: ClassVar[PacketType] = PacketType.PROBE
    WIRE: ClassVar[tuple] = (("probe_id", "u32"), ("p_ack", "f64"))


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class ProbeReplyPacket(Packet):
    """Probabilistic reply to a :class:`ProbePacket`."""

    probe_id: int

    TYPE: ClassVar[PacketType] = PacketType.PROBE_REPLY
    WIRE: ClassVar[tuple] = (("probe_id", "u32"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class DiscoveryQueryPacket(Packet):
    """Expanding-ring scoped-multicast query for a nearby logger (§2.2.1)."""

    ttl: int

    TYPE: ClassVar[PacketType] = PacketType.DISCOVERY_QUERY
    WIRE: ClassVar[tuple] = (("ttl", "u16"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class DiscoveryReplyPacket(Packet):
    """A logger answering discovery: its address token and hierarchy level
    (0 = primary, 1 = site secondary, …)."""

    logger_addr: str
    level: int

    TYPE: ClassVar[PacketType] = PacketType.DISCOVERY_REPLY
    WIRE: ClassVar[tuple] = (("level", "u16"), ("logger_addr", "str"))


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class PrimaryQueryPacket(Packet):
    """Receiver/secondary → source: "who is the primary logger now?"

    Sent when the cached primary address stops responding (§2.2.3).
    """

    TYPE: ClassVar[PacketType] = PacketType.PRIMARY_QUERY
    WIRE: ClassVar[tuple] = ()


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class PrimaryInfoPacket(Packet):
    """Source → asker: current primary logger address token."""

    primary_addr: str

    TYPE: ClassVar[PacketType] = PacketType.PRIMARY_INFO
    WIRE: ClassVar[tuple] = (("primary_addr", "str"),)


@register_packet
@dataclass(frozen=True, slots=True, init=False)
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


@register_packet
@dataclass(frozen=True, slots=True, init=False)
class ReplStatusQueryPacket(Packet):
    """Source → replica during failover: "report your cumulative log seq".

    The replica answers with a :class:`ReplAckPacket`; the source then
    promotes the most up-to-date replica (§2.2.3).
    """

    TYPE: ClassVar[PacketType] = PacketType.REPL_STATUS_QUERY
    WIRE: ClassVar[tuple] = ()


def encode(packet: Packet) -> bytes:
    """Serialize ``packet`` to its wire representation."""
    enc = _STRUCT_ENCODERS.get(type(packet))
    if enc is None:
        raise EncodeError(f"{type(packet).__name__} is not a registered packet type")
    return enc(packet)


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
    if len(data) > 4:
        end = 5 + data[4]
        hit = _DECODE_HEADS.get(data[:end])
        if hit is not None:
            return hit[0](data, end, hit[1])
    return _decode_cold(data)


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
    if len(view) > 4:
        end = 5 + view[4]
        # A view of a writable buffer is unhashable: the key is a copy.
        hit = _DECODE_HEADS.get(view[:end].tobytes())
        if hit is not None:
            return hit[0](view, end, hit[1])
    return _decode_cold(view)


def _decode_cold(data) -> Packet:
    """A head-table miss: the full header parse over any buffer."""
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
    try:
        group = str(data[5:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"group is not UTF-8: {exc}", bytes(data)) from None
    packet = dec(data, end, group)
    if len(_DECODE_HEADS) < _DECODE_HEADS_CAP:
        _DECODE_HEADS[bytes(data[:end])] = (dec, group)
    return packet


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
# There is no codec memo (DESIGN §6, "One head table, no codec memo"), but
# benchmarks/ledger/** still reads these three names and is frozen while a
# speed claim is gated on it; they go with those calls (ROADMAP item 1a).

encode_uncached = encode  # benchmarks/ledger/tracing.py wraps it by name


def codec_cache_stats() -> dict:
    """All zeros: benchmarks/ledger/workloads.py derives hit ratios from it."""
    return {side: {"hits": 0, "misses": 0, "size": 0} for side in ("encode", "decode")}


def clear_codec_caches() -> None:
    """No-op: benchmarks/ledger/workloads.py calls it before every unit."""
