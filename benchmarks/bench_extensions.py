"""§7 future-work extensions — quantified.

Three ablations for the directions the paper sketches in its conclusion:

1. **Retransmission channel** — recover by subscribing to a companion
   multicast channel instead of NACKing; loggers only serve packets that
   aged off it.
2. **Small-packet repeat** — heartbeat slots re-send a small last packet
   so a lost final update repairs itself.
3. **Multi-level logging hierarchy** — regional loggers collapse primary
   NACK load from one-per-site to one-per-region.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.core.config import HeartbeatConfig, LbrmConfig, ReceiverConfig
from repro.core.events import RecoveryComplete
from repro.core.logger import LoggerRole, LogServer
from repro.core.receiver import LbrmReceiver
from repro.core.retranschannel import RetransChannelConfig
from repro.core.sender import LbrmSender
from repro.simnet import (
    BurstLoss,
    DeploymentSpec,
    LbrmDeployment,
    Network,
    RngStreams,
    SimNode,
    Simulator,
)


def _run_channel(channel: bool, seed=4):
    """One receiver loses one packet; compare NACK-based vs channel recovery."""
    sim = Simulator()
    net = Network(sim, streams=RngStreams(seed))
    s0, s1 = net.add_site("s0"), net.add_site("s1")
    cfg = LbrmConfig()
    channel_cfg = RetransChannelConfig()
    prim_host = net.add_host("primary", s0)
    primary = LogServer("g", addr_token="primary", config=cfg,
                        role=LoggerRole.PRIMARY, source="src", level=0)
    SimNode(net, prim_host, [primary]).start()
    src_host = net.add_host("src", s0)
    sender = LbrmSender("g", cfg, primary="primary",
                        retrans_channel=channel_cfg if channel else None, addr_token="src")
    src_node = SimNode(net, src_host, [sender])
    src_node.start()
    rx_host = net.add_host("rx", s1)
    rcfg = ReceiverConfig(
        retrans_channel_fallback=channel_cfg.lifetime + 0.5 if channel else 0.0
    )
    receiver = LbrmReceiver("g", rcfg, logger_chain=("primary",), heartbeat=cfg.heartbeat)
    rx_node = SimNode(net, rx_host, [receiver])
    rx_node.start()
    sim.run_until(0.1)
    src_node.send_app(sender, b"one")
    sim.run_until(1.0)
    rx_host.inbound_loss = BurstLoss([(sim.now, sim.now + 0.05)])
    src_node.send_app(sender, b"two")
    sim.run_until(10.0)
    assert receiver.tracker.has(2)
    latency = rx_node.events_of(RecoveryComplete)[0].latency
    return receiver.stats["nacks_sent"], latency


def test_retrans_channel(benchmark, report):
    def both():
        return _run_channel(channel=False), _run_channel(channel=True)

    (nack_n, nack_lat), (chan_n, chan_lat) = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = [
        ("NACKs sent by receiver", nack_n, chan_n),
        ("recovery latency (s)", f"{nack_lat:.4f}", f"{chan_lat:.4f}"),
        ("server load", "1 request + 1 reply", "0 (channel carried it)"),
    ]
    text = "# §7 ext 1: retransmission channel vs NACK recovery (single loss)\n"
    text += format_table(["quantity", "NACK recovery", "channel recovery"], rows)
    report("ext_retrans_channel", text)
    assert nack_n >= 1 and chan_n == 0


def test_small_packet_repeat(benchmark, report):
    def run(repeat: bool):
        cfg = LbrmConfig(heartbeat=HeartbeatConfig(
            repeat_payload_max=256 if repeat else 0))
        dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=3,
                                            config=cfg, seed=44))
        dep.start()
        dep.advance(0.1)
        dep.send(b"warm")
        dep.advance(1.0)
        now = dep.sim.now
        dep.network.site("site1").tail_down.loss = BurstLoss([(now, now + 0.05)])
        dep.send(b"small final update")
        dep.advance(3.0)
        assert dep.receivers_with(2) == len(dep.receivers)
        nacks = sum(rx.stats["nacks_sent"] for rx in dep.receivers)
        upstream = sum(l.stats["upstream_nacks"] for l in dep.site_loggers)
        return nacks + upstream

    def both():
        return run(False), run(True)

    baseline, repeat = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = [("retransmission requests after the loss", baseline, repeat)]
    text = "# §7 ext 3: repeat small packets in heartbeat slots\n"
    text += format_table(["quantity", "plain heartbeats", "small-packet repeat"], rows)
    report("ext_small_packet_repeat", text)
    assert repeat < baseline
    assert repeat == 0  # the repeat repaired everything silently


def test_multilevel_hierarchy(benchmark, report):
    def primary_load(fanout: int):
        # fanout sites share one interior hub (depth 3); 0 = the flat layout
        shape = {"depth": 3, "fanout": fanout} if fanout else {}
        dep = LbrmDeployment(DeploymentSpec(n_sites=24, receivers_per_site=2,
                                            seed=13, **shape))
        dep.start()
        dep.advance(0.2)
        dep.send(b"warm")
        dep.advance(1.0)
        now = dep.sim.now
        for i in range(1, 25):
            dep.network.site(f"site{i}").tail_down.loss = BurstLoss([(now, now + 0.05)])
        dep.send(b"lost")
        dep.advance(10.0)
        assert dep.receivers_with(2) == len(dep.receivers)
        return dep.primary.stats["nacks_received"]

    def sweep():
        return [(size, primary_load(size)) for size in (0, 4, 8)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "# §7 ext 2: multi-level logging hierarchy, 24-site group-wide loss\n"
    text += format_table(
        ["region size (0 = two-level)", "NACKs at the primary server"], rows
    )
    report("ext_multilevel_hierarchy", text)
    by_size = dict(rows)
    assert by_size[0] == 24
    assert by_size[4] == 6
    assert by_size[8] == 3
