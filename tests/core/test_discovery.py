"""Expanding-ring discovery client tests (§2.2.1)."""

from __future__ import annotations

import pytest

from repro.core.actions import Notify, SendMulticast
from repro.core.config import DiscoveryConfig
from repro.core.discovery import DiscoveryClient
from repro.core.events import DiscoveryExhausted, LoggerDiscovered
from repro.core.packets import DiscoveryQueryPacket, DiscoveryReplyPacket


def queries(actions):
    return [a for a in actions if isinstance(a, SendMulticast) and isinstance(a.packet, DiscoveryQueryPacket)]


def found(actions):
    return [a.event.logger for a in actions if isinstance(a, Notify) and isinstance(a.event, LoggerDiscovered)]


def exhausted(actions):
    return [a.event for a in actions if isinstance(a, Notify) and isinstance(a.event, DiscoveryExhausted)]


def make_client(**kwargs) -> DiscoveryClient:
    cfg = DiscoveryConfig(**{"initial_ttl": 1, "max_ttl": 8, "query_timeout": 0.2, **kwargs})
    return DiscoveryClient("g", cfg)


def test_first_query_uses_initial_ttl():
    client = make_client()
    actions = client.start(0.0)
    sent = queries(actions)
    assert sent[0].packet.ttl == 1
    assert sent[0].ttl == 1  # transport scoping matches the packet


def test_ring_expands_on_silence():
    client = make_client()
    client.start(0.0)
    actions = client.poll(0.2)
    assert queries(actions)[0].packet.ttl == 2
    actions = client.poll(0.4)
    assert queries(actions)[0].packet.ttl == 4


def test_reply_ends_search_with_event():
    client = make_client()
    client.start(0.0)
    client.handle(DiscoveryReplyPacket(group="g", logger_addr="site-logger", level=1), "site-logger", 0.1)
    actions = client.poll(0.2)
    assert found(actions) == ["site-logger"]
    assert client.found_level == 1
    assert not client.searching


def test_deeper_level_preferred_within_ring():
    """A site secondary (level 1) beats the primary (level 0) in range."""
    client = make_client()
    client.start(0.0)
    client.handle(DiscoveryReplyPacket(group="g", logger_addr="primary", level=0), "primary", 0.05)
    client.handle(DiscoveryReplyPacket(group="g", logger_addr="sec", level=1), "sec", 0.1)
    assert found(client.poll(0.2)) == ["sec"]


def test_exhaustion_at_max_ttl():
    client = make_client(max_ttl=4)
    client.start(0.0)
    client.poll(client.next_wakeup())  # ttl 2
    client.poll(client.next_wakeup())  # ttl 4
    actions = client.poll(client.next_wakeup())  # silence at max
    assert exhausted(actions) and found(actions) == []
    assert client.found_level is None
    assert not client.searching


def test_reply_after_search_over_is_ignored():
    client = make_client()
    client.start(0.0)
    client.handle(DiscoveryReplyPacket(group="g", logger_addr="a", level=1), "a", 0.1)
    assert found(client.poll(0.2)) == ["a"]
    assert client.handle(DiscoveryReplyPacket(group="g", logger_addr="b", level=2), "b", 0.3) == []
    assert client.found_level == 1  # still a's
    assert client.next_wakeup() is None and client.poll(1.0) == []


def test_restart_clears_state():
    client = make_client(max_ttl=2)
    client.start(0.0)
    client.poll(client.next_wakeup())
    assert exhausted(client.poll(client.next_wakeup()))
    actions = client.start(1.0)
    assert queries(actions)[0].packet.ttl == 1
    assert client.searching
    # A fresh search: the silent first ring expands again.
    assert queries(client.poll(client.next_wakeup()))[0].packet.ttl == 2


def test_parse_token_applied():
    client = DiscoveryClient("g", DiscoveryConfig(), parse_token=lambda t: ("host", int(t)))
    client.start(0.0)
    client.handle(DiscoveryReplyPacket(group="g", logger_addr="4242", level=1), "x", 0.1)
    assert found(client.poll(1.0)) == [("host", 4242)]


def test_query_counter():
    client = make_client()
    client.start(0.0)
    client.poll(0.2)
    assert client.stats["queries_sent"] == 2


class TestRetryAndBackoff:
    """Loss hardening for real transports: same-ring retries, widening
    waits, and the explicit exhaustion notification."""

    def test_silent_ring_requeried_before_expansion(self):
        client = make_client(ring_retries=1)
        client.start(0.0)
        actions = client.poll(client.next_wakeup())
        assert queries(actions)[0].packet.ttl == 1  # retry, not expansion
        assert client.stats["ring_retries"] == 1
        actions = client.poll(client.next_wakeup())
        assert queries(actions)[0].packet.ttl == 2  # retries spent: expand

    def test_retry_budget_applies_per_ring(self):
        client = make_client(ring_retries=1, max_ttl=2)
        client.start(0.0)
        ttls = []
        for _ in range(3):
            actions = client.poll(client.next_wakeup())
            sent = queries(actions)
            if sent:
                ttls.append(sent[0].packet.ttl)
        assert ttls == [1, 2, 2]  # retry ring 1, expand, retry ring 2
        assert exhausted(client.poll(client.next_wakeup()))  # then no budget is left

    def test_timeout_backs_off_geometrically_with_cap(self):
        client = make_client(
            query_timeout=0.2, timeout_backoff=2.0, max_query_timeout=0.5, ring_retries=0
        )
        client.start(0.0)
        assert client.next_wakeup() == pytest.approx(0.2)
        now = client.next_wakeup()
        client.poll(now)  # expand; wait widens to 0.4
        assert client.next_wakeup() - now == pytest.approx(0.4)
        now = client.next_wakeup()
        client.poll(now)  # widens to 0.8 but capped at 0.5
        assert client.next_wakeup() - now == pytest.approx(0.5)

    def test_exhaustion_emits_event(self):
        from repro.core.events import DiscoveryExhausted

        client = make_client(max_ttl=2, ring_retries=1)
        client.start(0.0)
        events = []
        while client.searching:
            for action in client.poll(client.next_wakeup()):
                if isinstance(action, Notify):
                    events.append(action.event)
        exhausted = [e for e in events if isinstance(e, DiscoveryExhausted)]
        assert len(exhausted) == 1
        assert exhausted[0].max_ttl == 2
        assert exhausted[0].queries_sent == client.stats["queries_sent"] == 4

    def test_reply_during_retry_window_wins(self):
        client = make_client(ring_retries=2)
        client.start(0.0)
        client.poll(client.next_wakeup())  # first silent window: retry
        client.handle(DiscoveryReplyPacket(group="g", logger_addr="sec", level=1), "sec", 0.3)
        assert found(client.poll(client.next_wakeup())) == ["sec"]
        assert not client.searching

    def test_defaults_preserve_immediate_expansion(self):
        cfg = DiscoveryConfig()
        assert cfg.ring_retries == 0
        assert cfg.timeout_backoff == 1.0
