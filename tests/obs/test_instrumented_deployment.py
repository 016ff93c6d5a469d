"""End-to-end: a simulated deployment populates the registry coherently.

Builds a small version of the §2.2.2 world under a recording window,
loses one packet for a whole site, and checks that what the registry
says matches what the machines' own ``stats`` dicts and the packet
trace say.
"""

from __future__ import annotations

from repro import obs
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment


def run_lossy_deployment(seed: int = 0):
    reg = obs.registry()
    dep = LbrmDeployment(
        DeploymentSpec(n_sites=3, receivers_per_site=4, seed=seed)
    )
    dep.start()
    dep.advance(0.2)
    dep.send(b"one")
    dep.advance(0.5)
    site = dep.network.site("site1")
    site.tail_down.loss = BurstLoss([(dep.sim.now, dep.sim.now + 0.1)])
    dep.send(b"two")
    dep.advance(5.0)
    assert dep.receivers_with(2) == len(dep.receivers), "recovery incomplete"
    return dep, reg


def test_registry_matches_machine_stats():
    with obs.recording():
        dep, reg = run_lossy_deployment()

        # sender counters carry the node label
        assert reg.counter_value("sender.data_sent", node="source") == dep.sender.stats["data_sent"]
        assert dep.sender.stats["data_sent"] == 2

        # per-logger counters match each logger's stats
        for logger in [dep.primary] + dep.site_loggers:
            for key, value in logger.stats.items():
                assert reg.counter_value(f"logger.{key}", node=logger.addr_token) == value

        # receiver counters aggregate across all receiver instances
        assert reg.counter_value("receiver.nacks_sent") == sum(
            r.stats["nacks_sent"] for r in dep.receivers
        )
        assert reg.counter_value("receiver.data_received") == sum(
            r.stats["data_received"] for r in dep.receivers
        )


def test_registry_mirrors_packet_trace():
    with obs.recording() as reg:
        dep, _ = run_lossy_deployment()
        for (kind, ptype, cross), count in dep.trace.counts.items():
            from repro.core.packets import PacketType

            assert (
                reg.counter_value(
                    "simnet.packets",
                    kind=kind,
                    ptype=PacketType(ptype).name,
                    scope="cross" if cross else "local",
                )
                == count
            )


def test_simulator_and_log_gauges_populate():
    with obs.recording() as reg:
        dep, _ = run_lossy_deployment()
        assert reg.counter_value("sim.events_processed") == dep.sim.processed
        assert dep.sim.processed > 0
        # primary logged both packets; the gauge tracks the store level
        assert reg.snapshot()["gauges"]["logger.log_packets{node=primary}"] == 2
        assert reg.counter_value("log_store.appended") > 0


def test_recovery_latency_and_trace_events_recorded():
    with obs.recording() as reg:
        run_lossy_deployment()
        hist = reg.histogram("receiver.recovery_latency")
        # every receiver at the lossy site recovered exactly one packet
        assert hist.count == 4
        assert hist.p50 is not None and hist.p50 > 0.0
        assert len(reg.trace.events("receiver.loss_detected")) > 0
        assert len(reg.trace.events("receiver.nack")) > 0
        assert len(reg.trace.events("receiver.recovery_complete")) == 4
        assert len(reg.trace.events("sender.data")) == 2


def test_noop_mode_keeps_plain_dicts_and_empty_registry():
    obs.uninstall()
    dep, reg = run_lossy_deployment()
    assert not reg.enabled
    assert type(dep.sender.stats) is dict
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
