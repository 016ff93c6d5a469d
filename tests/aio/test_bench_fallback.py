"""``repro bench --aio`` where loopback multicast is unroutable (hosted CI):
the cluster scenario takes the unicast star, it does not fail or skip."""

from __future__ import annotations

import pytest

from repro.aio import bench

pytestmark = pytest.mark.network


def test_cluster_scenario_falls_back_to_a_unicast_star(monkeypatch):
    monkeypatch.setattr(bench, "multicast_available", lambda: False)
    monkeypatch.setattr(bench, "_warmed", True)  # no warm-up budget in a unit test
    small = dict(bench.PARAMS["quick"]["cluster"], packets=64)
    monkeypatch.setitem(bench.PARAMS["quick"], "cluster", small)
    run = bench.run_loopback("quick", "cluster")
    assert run["checks"]["transport"] == "unicast-fallback"
    assert run["checks"]["delivered_complete"]
