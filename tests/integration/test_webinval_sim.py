"""Appendix A over the full LBRM stack on the simulated WAN.

The text-protocol messages ride as LBRM payloads; a site-wide loss of an
UPDATE is repaired by the logging hierarchy, and the browser's RELOAD
flag lights up anyway.
"""

from __future__ import annotations

import pytest

from repro.apps.webinval import BrowserClient, HttpInvalidationServer, WebMessage
from repro.simnet import BurstLoss, DeploymentSpec, LbrmDeployment

URL = "http://www-DSG.Stanford.EDU/groupMembers.html"


def test_web_invalidation_over_lbrm_with_loss():
    dep = LbrmDeployment(DeploymentSpec(n_sites=3, receivers_per_site=2, seed=55))
    dep.start()
    dep.advance(0.1)

    server = HttpInvalidationServer()
    html = server.publish(URL, "<h1>v1</h1>")
    browsers = [BrowserClient() for _ in dep.receivers]
    for browser in browsers:
        browser.display(URL, html)

    # First change announces over LBRM.
    update1 = server.modify(URL, "<h1>v2</h1>")
    dep.send(update1.encode().encode("utf-8"))
    dep.advance(1.0)

    # Second change is lost at site2 — recovery must still invalidate.
    now = dep.sim.now
    dep.network.site("site2").tail_down.loss = BurstLoss([(now, now + 0.05)])
    update2 = server.modify(URL, "<h1>v3</h1>")
    dep.send(update2.encode().encode("utf-8"))
    dep.advance(3.0)

    for node, browser in zip(dep.receiver_nodes, browsers):
        for delivery in node.delivered:
            browser.on_message(WebMessage.decode(delivery.payload.decode("utf-8")))

    assert all(browser.needs_reload(URL) for browser in browsers)
    # Everyone, including site2, saw both updates (one recovered).
    assert dep.receivers_with(2) == len(dep.receivers)

    # Reloading clears the flag and serves v3.
    browsers[0].reload(URL, server.fetch(URL))
    assert not browsers[0].needs_reload(URL)
    assert "v3" in browsers[0].cached(URL)


def test_heartbeats_keep_idle_page_channel_fresh():
    """Long idle stretches cost only the backed-off heartbeats, and the
    browsers never spuriously invalidate."""
    dep = LbrmDeployment(DeploymentSpec(n_sites=2, receivers_per_site=2, seed=56))
    dep.start()
    dep.advance(0.1)
    server = HttpInvalidationServer()
    server.publish(URL, "<h1>v1</h1>")
    update = server.modify(URL, "<h1>v2</h1>")
    dep.send(update.encode().encode("utf-8"))
    dep.advance(300.0)  # five idle minutes
    # ~7 ramp beats + ~8 at the 32s cap; a fixed scheme would send 1200.
    assert dep.sender.stats["heartbeats_sent"] <= 16
    assert all(rx.stats["freshness_losses"] == 0 for rx in dep.receivers)
