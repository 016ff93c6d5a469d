"""The traffic the choice of engine rests on (DESIGN §6, "The engine is
a binary heap").

A plain heap is the whole engine because, in the default configuration,
the protocol gives it almost nothing to do: batched fan-out and the
``WakeupMux`` leave one event per *distinct* arrival time or deadline —
not one per receiver — and nothing ever cancels one.  This test pins
both facts on a small lossy deployment.  Whoever reintroduces
per-receiver events or cancel-heavy timers (SRM-style suppression, say)
fails it, and should reopen the engine choice knowingly: O(1) cancel
and a timer wheel are what that traffic wants, and DESIGN §6 says where
the old ones are.
"""

from __future__ import annotations

from repro.simnet import BernoulliLoss, DeploymentSpec, LbrmDeployment

# Engine events per network transmission (multicast or unicast call).
# Measured 1.53 at 5 receivers per site and 1.33 at 20; with
# ``batch_delivery`` off the same runs read 6.5 and 12.8.
MAX_EVENTS_PER_TRANSMISSION = 2.0


def _lossy_run(receivers_per_site: int) -> tuple[float, list[int]]:
    """(events per transmission, tombstones after every advance)."""
    dep = LbrmDeployment(DeploymentSpec(
        n_sites=4, receivers_per_site=receivers_per_site, enable_statack=True, seed=5,
    ))
    for node in dep.receiver_nodes:
        dep.network.host(node.name).inbound_loss = BernoulliLoss(
            0.05, dep.streams.stream(f"rx-loss:{node.name}")
        )
    tombstones = []

    def advance(dt: float) -> None:
        dep.advance(dt)
        tombstones.append(dep.sim.tombstones)

    dep.start()
    advance(0.2)
    for i in range(20):
        if i == 8:
            dep.burst_site("site2", duration=0.15)
        dep.send(b"p%d" % i)
        advance(0.1)
    advance(10.0)
    assert dep.receivers_missing() == 0  # the losses were real, and all repaired
    stats = dep.network.stats
    assert stats["dropped"] > receivers_per_site
    return dep.sim.processed / (stats["unicast_sent"] + stats["multicast_sent"]), tombstones


def test_default_traffic_has_no_cancels_and_no_per_receiver_events():
    few, few_tombstones = _lossy_run(receivers_per_site=5)
    many, many_tombstones = _lossy_run(receivers_per_site=20)
    assert set(few_tombstones) == set(many_tombstones) == {0}
    assert few <= MAX_EVENTS_PER_TRANSMISSION
    assert many <= MAX_EVENTS_PER_TRANSMISSION
    assert many <= few  # four times the receivers: not one more event per transmission
