"""In-order delivery is per-packet work: the allocation regression.

A packet is one immutable datum for the whole group, so what a receiver
keeps of it — the ``Deliver`` record in ``SimNode.delivered`` — is one
shared value, not one per receiver.  A timing cannot pin that on a
shared host; the allocator's block count can, exactly: minting a
``Deliver`` per (receiver, packet) retained 1.13 blocks per pair in
this scenario, sharing it retains 0.14 (list growth and the loggers'
entries), and both figures repeat exactly from run to run.
"""

from __future__ import annotations

import gc
import sys

from repro.simnet import DeploymentSpec, LbrmDeployment

BLOCKS_PER_PAIR_BOUND = 0.25


def test_in_order_delivery_allocates_per_packet_not_per_receiver():
    dep = LbrmDeployment(DeploymentSpec(n_sites=10, receivers_per_site=20, seed=5))
    dep.start()
    dep.advance(0.2)

    def train(n: int) -> None:
        for i in range(n):
            dep.send(b"x" * 64)
            dep.advance(0.05)

    train(10)  # warm-up: caches filled, every list past its first growth steps
    gc.collect()
    before = sys.getallocatedblocks()
    train(50)
    gc.collect()
    grown = sys.getallocatedblocks() - before

    nodes = dep.receiver_nodes
    assert all(len(node.delivered) == 60 for node in nodes)  # loss-free: everything arrived
    per_pair = grown / (len(nodes) * 50)
    assert per_pair < BLOCKS_PER_PAIR_BOUND, f"{per_pair:.3f} allocator blocks per (receiver, packet)"
    first = nodes[0].delivered
    for node in nodes[1:]:
        assert all(mine is theirs for mine, theirs in zip(node.delivered, first))
