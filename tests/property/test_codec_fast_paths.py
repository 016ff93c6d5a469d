"""The codec's two fast paths: the decode head table and the generated
constructors.

A head-table hit skips the header and group checks, so a warm table
must decode exactly what a cold one does, and reject exactly what a
cold one rejects; the table holds at most its cap whatever it is fed.
Each registered type's ``__init__`` is generated beside its codec
(``_compile_struct_codec``): it must take the dataclass's parameters,
order and defaults, and build packets that are the frozen values
``decode`` builds.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import senderreliable, srm  # noqa: F401  (register their types)
from repro.core import packets as P
from repro.core.errors import DecodeError
from tests.core.test_packets import GOLDENS, golden_packet, golden_vectors
from tests.property.test_codec_conformance import _ALL_CLASSES, _PACKETS

HEADS = P._DECODE_HEADS


def _cold(decode, data):
    """``decode(data)`` (or the DecodeError it raises) from an empty table,
    leaving the table as it was."""
    saved = dict(HEADS)
    HEADS.clear()
    try:
        return decode(data)
    except DecodeError as exc:
        return exc
    finally:
        HEADS.clear()
        HEADS.update(saved)


def _head(data: bytes) -> bytes | None:
    return data[: 5 + data[4]] if len(data) > 4 else None


# -- the decode head table ----------------------------------------------------


def test_the_head_table_holds_at_most_its_cap():
    """2,000 distinct groups through both entry points: the table stops at
    its cap, and every decode, hit or miss, is the cold decode."""
    HEADS.clear()
    wires = [P.encode(P.NackPacket(group=f"grp{i}", seqs=(i, i + 1))) for i in range(2000)]
    for decode in (P.decode, P.decode_from):
        for wire in wires:
            assert decode(wire) == _cold(decode, wire)
            assert len(HEADS) <= P._DECODE_HEADS_CAP
    assert len(HEADS) == P._DECODE_HEADS_CAP
    # The entries are the first heads seen, each the validated group.
    assert all(HEADS[_head(wire)][1] == f"grp{i}" for i, wire in enumerate(wires[:1024]))
    HEADS.clear()  # leave room for the heads later tests decode


@pytest.mark.parametrize("cls", _ALL_CLASSES, ids=lambda c: c.__name__)
def test_rejected_vectors_are_rejected_cold_and_warm(cls):
    """Every rejected golden of ``cls`` raises from an empty table and again
    after a warm-up on every valid vector of that type (their groups)."""
    rejected = [bytes.fromhex(bad["wire"]) for bad in GOLDENS["types"][cls.__name__]["rejected"]]
    for decode in (P.decode, P.decode_from):
        for data in rejected:
            assert isinstance(_cold(decode, data), DecodeError), data.hex()
        HEADS.clear()
        for packet, wire in golden_vectors(cls):
            assert decode(wire) == packet
        warmed = sum(_head(data) in HEADS for data in rejected)
        for data in rejected:
            with pytest.raises(DecodeError):
                decode(data)
        assert warmed, "no rejected vector shares a warmed head: the warm run tests nothing"


def test_header_rejections_are_rejected_cold_and_warm():
    rejected = [bytes.fromhex(bad["wire"]) for bad in GOLDENS["rejected_wires"]]
    for decode in (P.decode, P.decode_from):
        for data in rejected:
            assert isinstance(_cold(decode, data), DecodeError), data.hex()
        HEADS.clear()
        for cls in _ALL_CLASSES:
            for _, wire in golden_vectors(cls):
                decode(wire)
        for data in rejected:
            with pytest.raises(DecodeError):
                decode(data)


@settings(max_examples=200, deadline=None)
@given(_PACKETS, st.data())
def test_a_warm_table_decodes_what_a_cold_one_does(pkt, data):
    """Warm the table on ``pkt``, then cut, flip or extend its wire: each
    entry point's verdict (packet or DecodeError) is the cold one's."""
    wire = P.encode(pkt)
    mutated = bytearray(wire)
    how = data.draw(st.sampled_from(["same", "cut", "flip", "extend"]))
    if how == "cut":
        del mutated[data.draw(st.integers(min_value=0, max_value=len(wire) - 1)):]
    elif how == "flip":
        mutated[data.draw(st.integers(min_value=0, max_value=len(wire) - 1))] ^= data.draw(
            st.integers(min_value=1, max_value=255))
    elif how == "extend":
        mutated += data.draw(st.binary(min_size=1, max_size=8))
    mutated = bytes(mutated)
    for decode in (P.decode, P.decode_from):
        cold = _cold(decode, mutated)
        decode(wire)  # warm: the head of the original is in the table
        try:
            warm = decode(mutated)
        except DecodeError as exc:
            warm = exc
        if isinstance(cold, DecodeError):
            assert isinstance(warm, DecodeError) and str(warm) == str(cold)
        else:
            assert repr(warm) == repr(cold)


# -- the generated constructors --------------------------------------------------


def _vector_fields(cls):
    """Each valid and boundary golden of ``cls`` as constructor keywords."""
    entry = GOLDENS["types"][cls.__name__]
    for vector in entry["valid"] + entry["boundary"]:
        packet = golden_packet(cls, vector["fields"])
        yield {f.name: getattr(packet, f.name) for f in dataclasses.fields(cls)}


def _same_value(a, b) -> None:
    assert type(a) is type(b) and a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("cls", _ALL_CLASSES, ids=lambda c: c.__name__)
def test_generated_constructors_build_what_decode_builds(cls):
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    # The dataclass's parameters: names, order and defaults.
    params = inspect.signature(cls).parameters
    assert list(params) == [f.name for f in fields]
    assert [p.default for p in params.values()] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default for f in fields
    ]
    for kw in _vector_fields(cls):
        by_keyword = cls(**kw)
        positional = cls(*kw.values())
        defaulted = cls(**{name: kw[name] for name in required})
        for packet in (by_keyword, positional, defaulted):
            _same_value(packet, P.decode(P.encode(packet)))
            _same_value(packet, P.decode_from(bytearray(P.encode(packet))))
        _same_value(by_keyword, positional)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(defaulted, f.name) == f.default
        _same_value(dataclasses.replace(by_keyword, group="other"), cls(**{**kw, "group": "other"}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(by_keyword, fields[-1].name, kw[fields[-1].name])
        with pytest.raises(TypeError):
            cls(**{name: kw[name] for name in required[:-1]})  # one missing
        with pytest.raises(TypeError):
            cls(**kw, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*kw.values(), 1)  # one too many
