"""Loopback throughput tier for the real-UDP runtime (``repro bench --aio``).

Measures the live transport the same way the simulator tiers measure
the engine: deterministic workloads over the transport as deployed for
throughput — TX coalescing on (``bundling=True``), raw-socket zero-copy
RX ring, struct codecs.

Two scenarios, mirroring the simulator tiers' engine/scale split:

* ``aio_cluster_throughput`` — the full protocol stack end to end: a
  real :class:`~repro.aio.cluster.AioCluster` (sender + primary + site
  logger + N receivers on loopback multicast) carries a flow-controlled
  stream and every receiver must finish holding the complete stream.
  Protocol work (logging, ACK tracking, ordering) is a large fixed
  cost, so this is the *deployment-visible* throughput.
* ``aio_transport_blast`` — the transport in isolation: a sender node
  fans a stream to N sink receivers over unicast sockets, with minimal
  per-packet protocol work.  Per-datagram costs dominate, so this is
  the number the bundling design targets (HolbrookSC95 §4's bundling
  argument).

Where loopback multicast is unroutable (common on hosted CI) the
cluster scenario falls back to a unicast star over the identical
TX-coalescing and RX-ring code paths.  Where even UDP sockets are
unavailable the caller (``repro bench --aio``) writes an explicit
"skipped" artifact instead; silence must not read as "no regression".

Alongside packets/s each run records the fixed per-datagram costs
bundling amortizes: datagrams sent, ``sendto``/``recvfrom`` syscall
counts, and the bundle-occupancy histogram.
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.aio.smoke import multicast_available

__all__ = ["aio_available", "run_loopback", "PARAMS"]

PARAMS = {
    "quick": {
        "cluster": {
            "packets": 400, "burst": 32, "flow_window": 96, "payload": 32,
            "receivers": 3, "secondaries": 1, "max_bundle_bytes": 1400,
            "repeats": 1, "warm_s": 1.0,
        },
        "blast": {
            "packets": 1000, "burst": 32, "flow_window": 128, "payload": 32,
            "receivers": 3, "secondaries": 0, "max_bundle_bytes": 1400,
            "repeats": 1, "warm_s": 1.0,
        },
    },
    "aio": {
        "cluster": {
            "packets": 3000, "burst": 48, "flow_window": 96, "payload": 32,
            "receivers": 3, "secondaries": 1, "max_bundle_bytes": 1400,
            "repeats": 5, "warm_s": 6.0,
        },
        "blast": {
            "packets": 6000, "burst": 48, "flow_window": 128, "payload": 32,
            "receivers": 3, "secondaries": 0, "max_bundle_bytes": 1400,
            "repeats": 5, "warm_s": 6.0,
        },
    },
}


_warmed = False


def _warm_up(runner, p: dict, seconds: float) -> None:
    """Run (and discard) real scenario work once per process.

    The governor ramps each core's clock over the first seconds of
    sustained load, so a cold process measures its first scenario at a
    lower frequency than its second — a 2x order bias observed on
    CI-class hosts.  A synthetic spin loop does not fix
    this (it warms whichever core it lands on, not the ones the event
    loop and socket work migrate across), so the warm-up is the
    benchmark itself: discarded small runs until the budget is spent.
    Subsequent runs keep the clock up — the measured loops spin-yield.
    """
    global _warmed
    if _warmed:
        return
    _warmed = True
    small = dict(p, packets=min(800, p["packets"]))
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        asyncio.run(runner(small))


def aio_available() -> bool:
    """True when this environment can run the loopback tier at all.

    The tier needs working UDP sockets on loopback; multicast is probed
    separately (its absence selects the unicast fallback, not a skip).
    """
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind(("127.0.0.1", 0))
        finally:
            sock.close()
        return True
    except OSError:
        return False


async def _drain(nodes, expected: int, timeout: float = 60.0) -> None:
    """Spin-yield until every node delivered ``expected`` packets.

    ``sleep(0)`` (not a real sleep) so receive callbacks run back to
    back and no polling granularity leaks into the timed region — the
    drain burns CPU, which is fine for a loopback benchmark.
    """
    deadline = time.monotonic() + timeout
    while any(len(n.delivered) < expected for n in nodes):
        if time.monotonic() >= deadline:
            counts = [len(n.delivered) for n in nodes]
            raise TimeoutError(f"drain timed out: delivered={counts}, expected={expected}")
        await asyncio.sleep(0)


def _transport_stats(nodes) -> dict:
    tx_datagrams = sum(n.stats["tx_datagrams"] for n in nodes)
    rx_datagrams = sum(n.stats["rx_datagrams"] for n in nodes)
    occupancy: dict[int, int] = {}
    for n in nodes:
        for k, v in n.bundle_occupancy.items():
            occupancy[k] = occupancy.get(k, 0) + v
    flushes = sum(occupancy.values())
    coalesced = sum(k * v for k, v in occupancy.items())
    return {
        "tx_datagrams": tx_datagrams,
        "rx_datagrams": rx_datagrams,
        # One sendto per datagram out, one recvfrom per datagram in:
        # the fixed per-datagram cost bundling amortizes.
        "syscalls": tx_datagrams + rx_datagrams,
        "tx_bundles": sum(n.stats["tx_bundles"] for n in nodes),
        "tx_coalesced_packets": sum(n.stats["tx_coalesced_packets"] for n in nodes),
        "tx_bundle_drops": sum(n.stats["tx_bundle_drops"] for n in nodes),
        "decode_errors": sum(n.stats["decode_errors"] for n in nodes),
        "socket_errors": sum(n.stats["socket_errors"] for n in nodes),
        "bundle_occupancy": {str(k): occupancy[k] for k in sorted(occupancy)},
        "mean_occupancy": round(coalesced / flushes, 2) if flushes else 0.0,
    }


async def _run_multicast(p: dict) -> dict:
    from repro.aio.cluster import AioCluster
    from repro.core.config import LbrmConfig

    cluster = AioCluster(
        "bench/aio",
        LbrmConfig(),
        n_receivers=p["receivers"],
        n_secondaries=p["secondaries"],
        bundling=True,
    )
    payload = b"b" * p["payload"]
    async with cluster:
        # Warm-up: one packet end to end primes sockets, the codec's
        # group-header memo and the receivers' watchdog state before
        # the timed region.
        await cluster.publish(b"warm-up")
        await _drain(cluster.receiver_nodes, 1)
        t0 = time.perf_counter()
        sent = 0
        while sent < p["packets"]:
            n = min(p["burst"], p["packets"] - sent)
            # One frame's worth of updates enters the stack in one
            # tick — the arrival pattern (DIS state-update frames)
            # that TX coalescing packs into bundles.
            await cluster.publish_burst([payload] * n)
            sent += n
            # Flow control: never run more than flow_window packets
            # ahead of the slowest receiver, so kernel socket buffers
            # bound the backlog and the number measured is *sustainable*
            # throughput, not burst-then-recover.  (+1: the warm-up
            # packet.)
            await _drain(cluster.receiver_nodes, sent + 1 - p["flow_window"])
        await _drain(cluster.receiver_nodes, p["packets"] + 1)
        wall = time.perf_counter() - t0
        delivered = sum(len(n.delivered) for n in cluster.receiver_nodes)
        stats = _transport_stats(cluster.nodes)
        return _run_dict("multicast", p, wall, delivered, stats)


async def _run_blast(p: dict, transport: str = "unicast-blast") -> dict:
    """Transport-isolated unicast star: sender fans the stream to N sink
    nodes with minimal per-packet protocol work, so the measured rate
    is dominated by per-datagram transport cost (what bundling + the RX
    ring amortize) rather than by logger/receiver protocol logic.

    Doubles as the cluster scenario's fallback where loopback multicast
    is unroutable (``transport="unicast-fallback"``).
    """
    from repro.aio.groupmap import GroupDirectory
    from repro.aio.node import AioNode
    from repro.core.actions import SendUnicast, run_actions
    from repro.core.machine import ProtocolMachine
    from repro.core.packets import DataPacket

    _NO_ACTIONS: list = []

    class _Sink(ProtocolMachine):
        """Counting sink: the transport's job ends when the decoded
        packet reaches the machine, so the sink just tallies arrivals —
        any protocol work here would dilute the per-datagram cost this
        scenario isolates.
        """

        count = 0

        def handle(self, packet, addr, now):
            self.count += 1
            return _NO_ACTIONS

        def poll(self, now):
            return _NO_ACTIONS

        def next_wakeup(self):
            return None

    directory = GroupDirectory()
    sinks = [_Sink() for _ in range(p["receivers"])]
    receivers = [AioNode([sink], directory=directory) for sink in sinks]
    sender = AioNode(
        [], directory=directory,
        bundling=True, max_bundle_bytes=p["max_bundle_bytes"],
    )
    nodes = [sender, *receivers]
    try:
        for node in nodes:
            await node.start()
        dests = [node.address for node in receivers]
        payload = b"b" * p["payload"]
        # Pre-build the workload outside the timed region: packet
        # construction is application work; the clock measures encode →
        # sendto → recvfrom → decode → machine dispatch.  One packet
        # object fans to every receiver; the encode-once memo in
        # AioNode's send primitives encodes it once.
        bursts = []
        seq = 1
        sent = 0
        while sent < p["packets"]:
            n = min(p["burst"], p["packets"] - sent)
            actions = []
            for _ in range(n):
                seq += 1
                packet = DataPacket(group="bench/aio", seq=seq, payload=payload)
                actions.extend(SendUnicast(dest=d, packet=packet) for d in dests)
            bursts.append((n, actions))
            sent += n

        async def drain(expected: int) -> None:
            deadline = time.monotonic() + 60.0
            while any(s.count < expected for s in sinks):
                if time.monotonic() >= deadline:
                    counts = [s.count for s in sinks]
                    raise TimeoutError(
                        f"blast drain timed out: counts={counts}, expected={expected}"
                    )
                await asyncio.sleep(0)

        warm = DataPacket(group="bench/aio", seq=1, payload=payload)
        run_actions([SendUnicast(dest=d, packet=warm) for d in dests], sender)
        await drain(1)
        t0 = time.perf_counter()
        done = 0
        for n, actions in bursts:
            run_actions(actions, sender)
            done += n
            await drain(done + 1 - p["flow_window"])
        await drain(p["packets"] + 1)
        wall = time.perf_counter() - t0
        delivered = sum(s.count - 1 for s in sinks)
        stats = _transport_stats(nodes)
        return _run_dict(transport, p, wall, delivered, stats)
    finally:
        for node in nodes:
            await node.close()


def _run_dict(transport, p, wall, delivered, stats) -> dict:
    packets_total = p["packets"] * p["receivers"]
    return {
        "wall_s": wall,
        "events": packets_total,
        "events_per_sec": packets_total / wall,
        "datagrams_per_sec": stats["tx_datagrams"] / wall,
        "transport": transport,
        "bundling": True,
        "sim_events": 0,
        "peak_queue_depth": 0,
        **stats,
        "checks": {
            # Deterministic workload facts (counts only; no timing).
            "transport": transport,
            "packets_offered": p["packets"],
            "receivers": p["receivers"],
            "delivered_complete": delivered >= packets_total,
        },
    }


def run_loopback(tier: str = "aio", scenario: str = "cluster") -> dict:
    """One measured run of a loopback scenario; returns a harness run dict.

    ``scenario`` picks ``"cluster"`` (full protocol stack) or ``"blast"``
    (transport isolated; see module docstring).
    """
    p = PARAMS.get(tier, PARAMS["aio"])[scenario]
    if scenario == "blast":
        runner = _run_blast
    elif multicast_available():
        runner = _run_multicast
    else:
        runner = _cluster_fallback
    _warm_up(runner, p, p.get("warm_s", 2.0))
    best = None
    for _ in range(p["repeats"]):
        run = asyncio.run(runner(p))
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    best["params"] = dict(p)
    return best


async def _cluster_fallback(p: dict) -> dict:
    return await _run_blast(p, transport="unicast-fallback")
