"""Expanding-ring discovery over the simulated topology (§2.2.1)."""

from __future__ import annotations

import pytest

from repro.core.config import DiscoveryConfig, LbrmConfig
from repro.core.discovery import DiscoveryClient
from repro.core.events import DiscoveryExhausted, LoggerDiscovered
from repro.core.logger import LoggerRole, LogServer
from repro.simnet import Network, RngStreams, SimNode, Simulator


def build():
    sim = Simulator()
    net = Network(sim, streams=RngStreams(1))
    s0 = net.add_site("s0")
    s1 = net.add_site("s1")
    primary_host = net.add_host("primary", s0)
    sec_host = net.add_host("sec1", s1)
    rx_host = net.add_host("rx", s1)
    cfg = LbrmConfig()
    primary = LogServer("g", addr_token="primary", config=cfg,
                        role=LoggerRole.PRIMARY, level=0)
    secondary = LogServer("g", addr_token="sec1", config=cfg,
                          role=LoggerRole.SECONDARY, parent="primary", level=1)
    primary_node = SimNode(net, primary_host, [primary])
    sec_node = SimNode(net, sec_host, [secondary])
    primary_node.start()
    sec_node.start()
    return sim, net, rx_host


def test_finds_local_logger_with_ttl_one():
    sim, net, rx_host = build()
    client = DiscoveryClient("g", DiscoveryConfig(initial_ttl=1, query_timeout=0.2))
    node = SimNode(net, rx_host, [client])
    node.start()
    sim.run_until(1.0)
    found = node.events_of(LoggerDiscovered)
    assert [e.logger for e in found] == ["sec1"]
    assert found[0].ttl == 1  # first ring sufficed: it is local


def test_ring_expands_to_remote_primary_when_no_local_logger():
    sim = Simulator()
    net = Network(sim, streams=RngStreams(1))
    s0, s1 = net.add_site("s0"), net.add_site("s1")
    primary_host = net.add_host("primary", s0)
    rx_host = net.add_host("rx", s1)
    cfg = LbrmConfig()
    primary = LogServer("g", addr_token="primary", config=cfg,
                        role=LoggerRole.PRIMARY, level=0)
    SimNode(net, primary_host, [primary]).start()

    client = DiscoveryClient("g", DiscoveryConfig(initial_ttl=1, max_ttl=8, query_timeout=0.2))
    node = SimNode(net, rx_host, [client])
    node.start()
    sim.run_until(3.0)
    found = node.events_of(LoggerDiscovered)
    assert [e.logger for e in found] == ["primary"]
    assert found[0].ttl >= 4  # needed a WAN-wide ring


def test_exhaustion_with_no_loggers_anywhere():
    sim = Simulator()
    net = Network(sim, streams=RngStreams(1))
    s0 = net.add_site("s0")
    rx_host = net.add_host("rx", s0)
    net.add_host("other", s0)
    client = DiscoveryClient("g", DiscoveryConfig(initial_ttl=1, max_ttl=4, query_timeout=0.1))
    node = SimNode(net, rx_host, [client])
    node.start()
    sim.run_until(2.0)
    assert node.events_of(DiscoveryExhausted) and not node.events_of(LoggerDiscovered)


def test_discovered_chain_feeds_receiver():
    """Discovery output wires a receiver's chain at runtime."""
    sim, net, rx_host = build()
    from repro.core.receiver import LbrmReceiver

    client = DiscoveryClient("g", DiscoveryConfig(initial_ttl=1, query_timeout=0.2))
    receiver = LbrmReceiver("g", logger_chain=())
    node = SimNode(net, rx_host, [client, receiver])
    node.start()
    sim.run_until(1.0)
    (found,) = node.events_of(LoggerDiscovered)
    assert found.logger == "sec1"
    receiver.set_logger_chain((found.logger, "primary"))
    assert receiver.logger_chain == ("sec1", "primary")
