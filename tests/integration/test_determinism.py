"""Determinism regression: seeds pin runs, observability changes nothing.

Two guarantees this suite locks in:

* A seeded simulation run is bit-reproducible — same seed, same event
  trace, same metric registry, byte-identical snapshot JSON; different
  seeds diverge (so the seed actually reaches the randomness).
* Observability is *passive* — running the same scenario with the
  registry installed and in no-op mode produces identical protocol
  outcomes (instruments are write-only from the machines' view).
"""

from __future__ import annotations

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.simnet import BernoulliLoss, BurstLoss, DeploymentSpec, LbrmDeployment


def _run_scenario(seed: int):
    """A small lossy run: one burst outage plus seeded random loss on
    one receiver, so the seed genuinely shapes the packet history."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=3, seed=seed))
    dep.start()
    # A flaky receiver whose loss pattern comes from the seeded streams.
    dep.network.host("site2-rx0").inbound_loss = BernoulliLoss(
        0.3, dep.streams.stream("flaky-rx")
    )
    dep.advance(0.2)
    for i in range(4):
        dep.send(f"packet-{i}".encode())
        dep.advance(0.3)
    dep.burst_site("site1", duration=0.2)
    for i in range(4, 8):
        dep.send(f"packet-{i}".encode())
        dep.advance(0.3)
    dep.advance(8.0)
    return dep


def _record(seed: int):
    with obs.recording(MetricsRegistry()) as reg:
        dep = _run_scenario(seed)
        return reg.snapshot(), reg.trace.events(), dep


def test_same_seed_is_bit_identical():
    snap_a, trace_a, _ = _record(42)
    snap_b, trace_b, _ = _record(42)
    assert snap_a == snap_b
    assert trace_a == trace_b
    assert len(trace_a) > 0, "scenario produced no trace events"


def test_different_seeds_diverge():
    snap_a, trace_a, _ = _record(1)
    snap_b, trace_b, _ = _record(2)
    assert snap_a != snap_b or trace_a != trace_b


def _protocol_outcome(dep):
    """Everything protocol-visible: per-machine stats, delivery state."""
    return {
        "sender": dict(dep.sender.stats),
        "primary": dict(dep.primary.stats),
        "site_loggers": [dict(lg.stats) for lg in dep.site_loggers],
        "receivers": [dict(r.stats) for r in dep.receivers],
        "missing": dep.receivers_missing(),
        "held": [
            [r.tracker.has(seq) for seq in range(1, 9)] for r in dep.receivers
        ],
        "trace_counts": dict(dep.trace.counts),
        "sim_events": dep.sim.processed,
    }


def test_noop_mode_changes_no_protocol_behavior():
    """The acceptance criterion: disabling metrics must not change what
    the protocol does — same deliveries, same packets, same stats."""
    obs.uninstall()
    plain = _protocol_outcome(_run_scenario(7))
    with obs.recording():
        recorded = _protocol_outcome(_run_scenario(7))
    assert plain == recorded


def test_recording_registry_agrees_with_stats_dicts():
    with obs.recording() as reg:
        dep = _run_scenario(7)
        assert reg.counter_value("sender.data_sent", node="source") == dep.sender.stats["data_sent"]
        assert reg.counter_value("receiver.data_received") == sum(
            r.stats["data_received"] for r in dep.receivers
        )
        assert reg.counter_value("sim.events_processed") == dep.sim.processed


def _run_tree_scenario(seed: int):
    """Depth-3 tree through a hub crash: link measurements, crash
    re-parenting and the quiet epochs after it all happen."""
    dep = LbrmDeployment(
        DeploymentSpec(n_sites=9, receivers_per_site=1, depth=3, fanout=3, seed=seed)
    )
    dep.start()
    dep.advance(0.5)
    dep.send(b"a")
    dep.advance(0.3)
    dep.node("hub1-1-logger").crash()
    dep.burst_site("site5", 0.3)
    dep.send(b"b")
    dep.advance(0.3)
    dep.send(b"c")
    dep.advance(15.0)
    return dep


def test_noop_mode_changes_no_tree_behavior():
    """The tree manager reports into the registry too, and that must not
    change a re-parenting decision, a link estimate or a delivery."""

    def outcome(dep):
        return {
            "hierarchy": dep.hierarchy.to_dict(),
            "interior": [dict(lg.stats) for lg in dep.interior_loggers],
            **_protocol_outcome(dep),
        }

    obs.uninstall()
    plain = outcome(_run_tree_scenario(11))
    with obs.recording() as reg:
        dep = _run_tree_scenario(11)
        recorded = outcome(dep)
        stats = dep.hierarchy.manager.stats
        assert stats["reparents_crash"] > 0
        assert reg.counter_value("hierarchy.rescores") == stats["rescores"]
        for reason in ("crash", "saturation", "cost", "forced"):
            assert reg.counter_value(f"hierarchy.reparents.{reason}") == stats[f"reparents_{reason}"]
        # A few full passes (start, the crash, the pass after its moves),
        # then only touched children: a fraction of the rescores x nodes
        # that scanning every child every epoch would examine.
        full = reg.counter_value("hierarchy.rescore_full_passes")
        children = len(dep.hierarchy.manager.tree.nodes) - 1
        assert 1 <= full < stats["rescores"] / 4
        assert full * children <= reg.counter_value("hierarchy.rescore_examined")
        assert reg.counter_value("hierarchy.rescore_examined") < stats["rescores"] * children / 4
    assert plain == recorded
