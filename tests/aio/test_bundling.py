"""TX coalescing over real sockets: trace identity, MTU budget, drops.

The fast path's contract (ISSUE 8): with ``bundling=False`` the wire is
byte-identical to the pre-bundling transport; with ``bundling=True``
only the *grouping* of packets into datagrams changes — the decoded
stream every machine sees is the same trace either way.  These tests
run the real loopback sockets (unicast, so they hold on CI hosts where
multicast is unroutable) and assert on recorded wire bytes, datagram
counts, the occupancy histogram, the high-water drop policy, and the
multicast TTL cache.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.aio import AioNode, GroupDirectory
from repro.aio import node as node_mod
from repro.core import packets as P
from repro.core.actions import SendUnicast, run_actions
from repro.core.machine import ProtocolMachine
from repro.core.packets import BUNDLE_OVERHEAD, DataPacket

pytestmark = pytest.mark.network

_NO_ACTIONS: list = []


class _Sink(ProtocolMachine):
    """Records every decoded packet the node dispatches to it."""

    def __init__(self) -> None:
        super().__init__()
        self.packets = []

    def handle(self, packet, addr, now):
        self.packets.append(packet)
        return _NO_ACTIONS

    def poll(self, now):
        return _NO_ACTIONS

    def next_wakeup(self):
        return None


class _RecordingSock:
    """Wraps a real socket, keeping a copy of every datagram sent."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.wires: list[bytes] = []

    def sendto(self, wire, dest):
        self.wires.append(bytes(wire))
        return self._sock.sendto(wire, dest)

    def __getattr__(self, name):
        return getattr(self._sock, name)


async def _drain(sink: _Sink, expected: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while len(sink.packets) < expected:
        if time.monotonic() >= deadline:
            raise TimeoutError(f"drain: got {len(sink.packets)}, expected {expected}")
        await asyncio.sleep(0)


async def _run_stream(bundling: bool, payloads, expected: int | None = None,
                      **sender_kwargs):
    """Send one DataPacket per payload to a sink node; return
    (delivered packets, sender stats snapshot, recorded wires)."""
    directory = GroupDirectory()
    sink = _Sink()
    receiver = AioNode([sink], directory=directory)
    sender = AioNode([], directory=directory, bundling=bundling, **sender_kwargs)
    try:
        await receiver.start()
        await sender.start()
        recorder = _RecordingSock(sender._unicast_sock)
        sender._unicast_sock = recorder
        dest = receiver.address
        actions = [
            SendUnicast(dest=dest, packet=DataPacket(group="t/bundle", seq=i + 1,
                                                     payload=payload))
            for i, payload in enumerate(payloads)
        ]
        run_actions(actions, sender)
        await _drain(sink, len(payloads) if expected is None else expected)
        stats = dict(sender.stats)
        occupancy = dict(sender.bundle_occupancy)
        return sink.packets, stats, occupancy, recorder.wires
    finally:
        await sender.close()
        await receiver.close()


def test_trace_identity_bundling_on_vs_off():
    """The decoded stream is identical either way; only the datagram
    grouping differs (and bundling actually coalesces)."""
    payloads = [b"p%03d" % i for i in range(40)]
    off, off_stats, _, off_wires = asyncio.run(_run_stream(False, payloads))
    on, on_stats, _, on_wires = asyncio.run(_run_stream(True, payloads))
    assert [(p.seq, p.payload) for p in off] == [(p.seq, p.payload) for p in on]
    assert off_stats["tx_datagrams"] == len(payloads)
    assert on_stats["tx_datagrams"] < off_stats["tx_datagrams"]
    assert on_stats["tx_bundles"] >= 1
    assert on_stats["tx_coalesced_packets"] == len(payloads)
    # Unbundled frames inside the bundles are the exact unbundled wires.
    rebuilt = []
    for wire in on_wires:
        if P.is_bundle(wire):
            rebuilt.extend(bytes(f) for f in P.iter_bundle(wire))
        else:
            rebuilt.append(wire)
    assert rebuilt == off_wires


def test_bundling_off_is_byte_identical_to_plain_encode():
    """bundling=False puts exactly ``encode(packet)`` on the wire — no
    framing, no reordering, one datagram per packet."""
    payloads = [b"alpha", b"beta", b"gamma"]
    delivered, _, _, wires = asyncio.run(_run_stream(False, payloads))
    expected = [
        P.encode(DataPacket(group="t/bundle", seq=i + 1, payload=pl))
        for i, pl in enumerate(payloads)
    ]
    assert wires == expected
    assert not any(P.is_bundle(w) for w in wires)
    assert [p.payload for p in delivered] == payloads


def test_single_queued_packet_ships_unframed():
    """A flush with occupancy 1 sends the bare packet wire (6 bytes
    cheaper than a 1-bundle and byte-identical to bundling=False)."""
    delivered, stats, occupancy, wires = asyncio.run(_run_stream(True, [b"solo"]))
    assert wires == [P.encode(DataPacket(group="t/bundle", seq=1,
                                                  payload=b"solo"))]
    assert stats["tx_bundles"] == 0
    assert occupancy == {1: 1}
    assert delivered[0].payload == b"solo"


def test_one_tick_burst_coalesces_into_one_datagram():
    payloads = [b"x" * 8 for _ in range(10)]
    delivered, stats, occupancy, wires = asyncio.run(_run_stream(True, payloads))
    assert len(wires) == 1 and P.is_bundle(wires[0])
    assert stats["tx_datagrams"] == 1
    assert stats["tx_bundles"] == 1
    assert stats["tx_coalesced_packets"] == 10
    assert occupancy == {10: 1}
    assert len(delivered) == 10


def test_mtu_budget_bounds_every_datagram():
    """No datagram ever exceeds max_bundle_bytes; the burst splits into
    several full bundles instead."""
    limit = 256
    payloads = [bytes([i]) * 48 for i in range(24)]
    delivered, stats, _, wires = asyncio.run(
        _run_stream(True, payloads, max_bundle_bytes=limit)
    )
    assert len(delivered) == 24
    assert stats["tx_datagrams"] == len(wires) > 1
    assert all(len(w) <= limit for w in wires)
    # Splitting preserved per-destination order.
    seqs = []
    for wire in wires:
        frames = P.iter_bundle(wire) if P.is_bundle(wire) else [wire]
        seqs.extend(P.decode_from(f).seq for f in frames)
    assert seqs == sorted(seqs)


def test_oversize_packet_flushes_queue_then_ships_alone():
    """A packet too big to share a datagram must not block or split:
    the pending bundle flushes first (ordering), then it goes alone."""
    limit = 256
    big = b"B" * (limit - BUNDLE_OVERHEAD)  # over the frame budget, under UDP's cap
    payloads = [b"s1", b"s2", big, b"s3"]
    delivered, _, occupancy, wires = asyncio.run(
        _run_stream(True, payloads, max_bundle_bytes=limit)
    )
    assert [p.payload for p in delivered] == payloads
    # Flush of [s1, s2], the lone oversize wire, then [s3] on the tick.
    assert occupancy.get(1, 0) >= 1
    assert any(len(w) > limit - BUNDLE_OVERHEAD and not P.is_bundle(w) for w in wires)


def test_high_water_drop_policy_bounds_the_queue():
    """Overflowing max_queued_packets drops (like network loss) instead
    of buffering without bound; survivors still arrive in order."""
    payloads = [b"q%02d" % i for i in range(10)]
    delivered, stats, _, _ = asyncio.run(
        _run_stream(True, payloads, expected=4, max_queued_packets=4)
    )
    assert stats["tx_bundle_drops"] == 6
    assert [p.payload for p in delivered] == payloads[:4]


def test_tx_tables_forget_flushed_destinations():
    """Unicast queue keys carry remote addresses (every NACK source a
    logger answers), so a flush must forget the key, not park an empty
    entry per peer ever seen — and forgetting must not change what goes
    on the wire: same bytes, same per-destination order as bundling off."""
    dests = [("127.0.0.1", 20000 + i) for i in range(60)]
    payload = b"r" * 500  # the third per tick overflows the budget mid-call

    class _Capture(_RecordingSock):
        def sendto(self, wire, dest):
            self.wires.append((dest, bytes(wire)))
            return len(wire)

    async def run(bundling: bool):
        sender = AioNode([], bundling=bundling)
        try:
            await sender.start()
            capture = _Capture(sender._unicast_sock)
            sender._unicast_sock = capture
            seq = 0
            table_sizes = []
            for _tick in range(4):
                for dest in dests:
                    for _ in range(3):
                        seq += 1
                        packet = DataPacket(group="t/bundle", seq=seq, payload=payload)
                        run_actions([SendUnicast(dest=dest, packet=packet)], sender)
                while sender._flush_handle is not None:
                    await asyncio.sleep(0)
                table_sizes.append((len(sender._tx_queues), len(sender._tx_sizes)))
            return capture.wires, table_sizes
        finally:
            await sender.close()

    def per_destination(wires):
        streams: dict = {}
        for dest, wire in wires:
            frames = P.iter_bundle(wire) if P.is_bundle(wire) else [wire]
            streams.setdefault(dest, []).extend(bytes(f) for f in frames)
        return streams

    off_wires, _ = asyncio.run(run(False))
    on_wires, table_sizes = asyncio.run(run(True))
    assert table_sizes == [(0, 0)] * 4
    assert any(P.is_bundle(wire) for _, wire in on_wires)
    assert per_destination(on_wires) == per_destination(off_wires)
    assert set(per_destination(on_wires)) == set(dests)


def test_bundle_delay_coalesces_across_ticks():
    """With max_bundle_delay > 0 the flush timer spans event-loop ticks,
    so two temporally close bursts share one datagram."""

    async def run():
        directory = GroupDirectory()
        sink = _Sink()
        receiver = AioNode([sink], directory=directory)
        sender = AioNode([], directory=directory, bundling=True,
                         max_bundle_delay=0.05)
        try:
            await receiver.start()
            await sender.start()
            dest = receiver.address
            for seq in (1, 2):
                run_actions(
                    [SendUnicast(dest=dest,
                                 packet=DataPacket(group="t/bundle", seq=seq,
                                                   payload=b"tick"))],
                    sender,
                )
                await asyncio.sleep(0)  # a real tick boundary between sends
            await _drain(sink, 2)
            return dict(sender.stats)
        finally:
            await sender.close()
            await receiver.close()

    stats = asyncio.run(run())
    assert stats["tx_datagrams"] == 1
    assert stats["tx_coalesced_packets"] == 2


def test_close_flushes_pending_bundles():
    """Packets queued but not yet flushed must not be lost on close."""

    async def run():
        directory = GroupDirectory()
        sink = _Sink()
        receiver = AioNode([sink], directory=directory)
        sender = AioNode([], directory=directory, bundling=True,
                         max_bundle_delay=5.0)  # timer won't fire on its own
        try:
            await receiver.start()
            await sender.start()
            run_actions(
                [SendUnicast(dest=receiver.address,
                             packet=DataPacket(group="t/bundle", seq=1,
                                               payload=b"pending"))],
                sender,
            )
            await sender.close()
            await _drain(sink, 1)
            return [p.payload for p in sink.packets]
        finally:
            await sender.close()
            await receiver.close()

    assert asyncio.run(run()) == [b"pending"]


def test_ttl_cache_skips_redundant_setsockopt(monkeypatch):
    """_apply_ttl only calls setsockopt when the TTL actually changes
    (satellite: steady-state scoped sends cost zero syscalls)."""

    async def run():
        calls = []
        real = node_mod.set_multicast_ttl
        monkeypatch.setattr(
            node_mod, "set_multicast_ttl",
            lambda sock, ttl: (calls.append(ttl), real(sock, ttl))[1],
        )
        node = AioNode([])
        try:
            await node.start()
            node._apply_ttl(1)   # startup default: already 1, no syscall
            assert calls == []
            node._apply_ttl(5)
            node._apply_ttl(5)
            node._apply_ttl(5)
            assert calls == [5]
            node._apply_ttl(2)
            node._apply_ttl(1)
            assert calls == [5, 2, 1]
        finally:
            await node.close()

    asyncio.run(run())
