#!/usr/bin/env python3
"""Distributed cache invalidation vs leasing (§4.1–4.2).

A file server keeps client caches consistent over one LBRM channel:
invalidations arrive reliably, a lost invalidation is recovered before
anyone serves stale data, and a channel outage degrades exactly like a
lease expiry — without per-file lease renewals.

Run:  python examples/cache_invalidation.py
"""

from __future__ import annotations

from repro.apps.cache import CacheClient, InvalidationServer, LeaseClient
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment


def main() -> None:
    dep = LbrmDeployment(DeploymentSpec(n_sites=4, receivers_per_site=3, seed=33))
    dep.start()
    dep.advance(0.1)

    server = InvalidationServer()
    clients = [CacheClient() for _ in dep.receivers]
    for client in clients:
        for key in ("etc/passwd", "home/readme", "var/data"):
            client.put(key, b"v1")

    print(f"{len(clients)} clients cache 3 files each; the server modifies one ...")
    dep.send(server.refresh("home/readme", b"v2"))
    dep.advance(1.0)
    for node, client in zip(dep.receiver_nodes, clients):
        for delivery in node.delivered:
            client.on_deliver(delivery)
    fresh = sum(1 for c in clients if c.get("home/readme") == b"v2")
    print(f"  clients now holding v2: {fresh}/{len(clients)}")

    print("\nsite2's tail circuit drops the next invalidation ...")
    dep.burst_site("site2", 0.1)
    dep.send(server.invalidate("etc/passwd"))
    dep.advance(3.0)
    for node, client in zip(dep.receiver_nodes, clients):
        for delivery in node.delivered:
            client.on_deliver(delivery)
    stale = sum(1 for c in clients if c.get("etc/passwd") is not None)
    print(f"  clients still serving the stale file after recovery: {stale} "
          f"(cross-site NACKs: {dep.trace.cross_site_nacks()})")

    # The lease comparison (§4.2): keeping 3 files valid for 10 minutes.
    lease = LeaseClient(lease_term=10.0)
    renewals = lease.renewals_required(n_keys=3, duration=600.0)
    per_client_lbrm = dep.receivers[0].stats["heartbeats_received"]
    print("\nbookkeeping comparison over 10 idle minutes, per client:")
    print(f"  leases (10s term, 3 files):   {renewals:.0f} renewal round-trips")
    dep.advance(600.0)
    hb = dep.receivers[0].stats["heartbeats_received"] - per_client_lbrm
    print(f"  LBRM channel:                 {hb} shared heartbeats, 0 renewals")

    print("\nchannel failure behaves like a lease timeout:")
    dep.kill_primary()
    # silence the source too: total channel outage for the receivers
    dep.source_node.crash()
    dep.advance(130.0)  # > 2x h_max of silence
    client = clients[0]
    for event in dep.receiver_nodes[0].events:
        client.on_event(event)
    print(f"  client connected: {client.connected}; "
          f"cached reads now miss: {client.get('var/data') is None}")


if __name__ == "__main__":
    main()
