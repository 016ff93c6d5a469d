"""Chaos soak: random loss, random crashes, one long run, hard invariants.

A randomized schedule of tail-circuit bursts, per-receiver loss spells,
and a site-logger crash runs against a steady update stream.  At the end
of the run (loss lifted, time to converge) every surviving receiver must
hold the complete stream, the source buffer must be drained, and every
logger's log must be contiguous.
"""

from __future__ import annotations

import random

import pytest

from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment, NoLoss


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_chaos_soak(seed):
    rng = random.Random(seed)
    dep = LbrmDeployment(DeploymentSpec(n_sites=5, receivers_per_site=3, seed=seed))
    dep.start()
    dep.advance(0.2)
    # Every host in the order the network made them: the source's first,
    # then the members' (the source's node joins ``members`` later).
    hosts = [dep.node(name).host for name in ("source", *(n for n in dep.members if n != "source"))]

    n_packets = 40
    crashed_logger = rng.randrange(5)
    for i in range(n_packets):
        # Random chaos before each send.
        event = rng.random()
        if event < 0.25:
            site = f"site{rng.randint(1, 5)}"
            dep.burst_site(site, rng.uniform(0.05, 1.5))
        elif event < 0.35:
            victim = rng.choice(hosts)
            if victim.name.endswith(tuple("0123456789")) and "rx" in victim.name:
                victim.inbound_loss = BernoulliLoss(0.5, dep.streams.stream(f"v{i}"))
        elif event < 0.40 and i == 10:
            dep.kill_site_logger(crashed_logger)
        dep.send(f"payload-{i}".encode())
        dep.advance(rng.uniform(0.2, 1.0))

    # Lift all loss and let recovery converge.
    for site in dep.receiver_sites:
        site.tail_down.loss = NoLoss()
    for host in hosts:
        host.inbound_loss = None
    dep.advance(60.0)

    # Invariant 1: every receiver holds the whole stream (or abandoned
    # cleanly if its only loggers died — with the primary alive that
    # should not happen here).
    for idx, rx in enumerate(dep.receivers):
        for seq in range(1, n_packets + 1):
            assert rx.tracker.has(seq), (
                f"receiver {idx} missing seq {seq}: {rx.stats}"
            )
        assert rx.missing == frozenset()

    # Invariant 2: the source has released everything.
    assert dep.sender.unacked == 0
    assert dep.sender.released_up_to == n_packets

    # Invariant 3: surviving loggers hold contiguous, complete logs.
    assert len(dep.primary.log) == n_packets
    for i, logger in enumerate(dep.site_loggers):
        if dep.site_logger_nodes[i].machines:
            assert logger.primary_seq == n_packets, (
                f"site logger {i} log incomplete: {logger.stats}"
            )


def test_soak_determinism():
    """The same seed gives the exact same chaos and the exact same stats."""
    def run():
        rng = random.Random(9)
        dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=2, seed=9))
        dep.start()
        dep.advance(0.2)
        for i in range(15):
            if rng.random() < 0.4:
                dep.burst_site(f"site{rng.randint(1, 3)}", rng.uniform(0.05, 0.8))
            dep.send(f"p{i}".encode())
            dep.advance(rng.uniform(0.2, 0.8))
        dep.advance(20.0)
        return (
            dep.sender.stats.copy(),
            [rx.stats.copy() for rx in dep.receivers],
            dep.trace.counts.copy(),
        )

    assert run() == run()
