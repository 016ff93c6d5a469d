"""``repro aio-smoke`` — live-UDP conformance check with a JSON artifact.

Runs a small :class:`~repro.aio.cluster.AioCluster` (primary + site
secondary + replica + receivers) on real loopback multicast, streams a
handful of packets, and grades the run with
:class:`~repro.chaos.oracle.ChaosOracle` against invariants I1–I4 — the
same oracle the simulator's conformance campaign uses.  The outcome
is written as machine-readable JSON so CI can upload it as an artifact.

Hosted CI runners frequently cannot route multicast on loopback, so the
command first probes the data path with a raw send/receive round-trip;
when the probe fails it writes a ``"skipped"`` report and exits 0 —
"cannot test here" must not masquerade as "conformant" *or* "broken".
"""

from __future__ import annotations

import argparse
import asyncio
import json
import select
import socket
import sys
import time

__all__ = ["build_smoke_parser", "run_smoke", "multicast_available"]

PROBE_GROUP = "239.255.99.99"
PROBE_PAYLOAD = b"repro-aio-smoke-probe"


def multicast_available(interface: str = "127.0.0.1", timeout: float = 1.0) -> bool:
    """True when a loopback multicast datagram makes a round trip."""
    from repro.aio.udp import make_multicast_recv_socket, make_multicast_send_socket

    recv = send = None
    try:
        recv = make_multicast_recv_socket(PROBE_GROUP, 0, interface)
        port = recv.getsockname()[1]
        send = make_multicast_send_socket(interface)
        send.sendto(PROBE_PAYLOAD, (PROBE_GROUP, port))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([recv], [], [], deadline - time.monotonic())
            if ready and recv.recv(1024) == PROBE_PAYLOAD:
                return True
        return False
    except OSError:
        return False
    finally:
        for sock in (recv, send):
            if sock is not None:
                sock.close()


async def _run_cluster(args: argparse.Namespace) -> dict:
    from repro.aio.cluster import AioCluster
    from repro.chaos.oracle import ChaosOracle
    from repro.core.config import DiscoveryConfig, LbrmConfig

    config = LbrmConfig()
    cluster = AioCluster(
        "smoke/aio",
        config,
        n_receivers=args.receivers,
        n_secondaries=args.secondaries,
        n_replicas=args.replicas,
        use_discovery=args.discovery,
        discovery=DiscoveryConfig(initial_ttl=1, query_timeout=0.3),
        bundling=args.bundling,
    )
    started = time.monotonic()
    async with cluster:
        oracle = ChaosOracle(cluster)
        oracle.install()
        if args.discovery:
            await cluster.wait_discovery(timeout=10.0)
        for i in range(args.packets):
            await cluster.publish(f"smoke-{i}".encode())
            await asyncio.sleep(args.spacing)
        # Let retransmissions/heartbeats settle before grading.
        for i in range(args.receivers):
            await cluster.deliveries(i, args.packets, timeout=5.0)
        await asyncio.sleep(0.3)
        violations = oracle.finish()
        report = {
            "status": "violations" if violations else "ok",
            "elapsed_s": round(time.monotonic() - started, 3),
            "packets": args.packets,
            "receivers": args.receivers,
            "secondaries": args.secondaries,
            "replicas": args.replicas,
            "discovery": args.discovery,
            "bundling": args.bundling,
            "tx_bundles": sum(n.stats["tx_bundles"] for n in cluster.nodes),
            "tx_coalesced_packets": sum(
                n.stats["tx_coalesced_packets"] for n in cluster.nodes
            ),
            "violations": [v.to_dict() for v in violations],
            "invariants": ["delivery", "silence", "log-safety", "promotion"],
            "delivered": [
                len(node.delivered) for node in cluster.receiver_nodes
            ],
            "socket_errors": sum(n.stats["socket_errors"] for n in cluster.nodes),
            "group_mismatches": sum(n.stats["group_mismatches"] for n in cluster.nodes),
        }
        if args.discovery:
            report["discovery_stats"] = [
                dict(c.stats, found_level=c.found_level) for c in cluster.discovery_clients
            ]
        return report


def build_smoke_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--packets", type=int, default=8, help="packets to stream (default 8)")
    parser.add_argument("--receivers", type=int, default=3, help="receivers (default 3)")
    parser.add_argument(
        "--secondaries", type=int, default=1, help="site secondary loggers (default 1)"
    )
    parser.add_argument("--replicas", type=int, default=1, help="log replicas (default 1)")
    parser.add_argument(
        "--discovery", action="store_true",
        help="locate loggers via expanding-ring discovery instead of static wiring",
    )
    parser.add_argument(
        "--spacing", type=float, default=0.05, help="seconds between packets (default 0.05)"
    )
    parser.add_argument(
        "--bundling", action="store_true",
        help="coalesce outbound packets into bundle datagrams (transport fast path)",
    )
    parser.add_argument(
        "--out", default="AIO_SMOKE.json", help="JSON report path (default AIO_SMOKE.json)"
    )


def run_smoke(args: argparse.Namespace) -> int:
    if not multicast_available():
        report = {
            "status": "skipped",
            "reason": "loopback multicast not routable in this environment",
        }
        _write(args.out, report)
        print("aio-smoke: skipped (no loopback multicast); report written to", args.out)
        return 0
    try:
        report = asyncio.run(_run_cluster(args))
    except (OSError, TimeoutError, asyncio.TimeoutError) as exc:
        report = {"status": "error", "reason": f"{type(exc).__name__}: {exc}"}
        _write(args.out, report)
        print(f"aio-smoke: error — {report['reason']}", file=sys.stderr)
        return 1
    _write(args.out, report)
    if report["status"] == "ok":
        print(
            f"aio-smoke: OK — {report['packets']} packets to {report['receivers']} receivers "
            f"({report['secondaries']} site logger(s), {report['replicas']} replica(s)), "
            f"invariants I1-I4 clean in {report['elapsed_s']}s; report: {args.out}"
        )
        return 0
    print(f"aio-smoke: {len(report['violations'])} invariant violation(s); see {args.out}",
          file=sys.stderr)
    for v in report["violations"]:
        print(f"  [{v['invariant']}] {v['subject']}: {v['detail']}", file=sys.stderr)
    return 1


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
