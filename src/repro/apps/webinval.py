"""WWW page invalidation — the Appendix A protocol, faithfully.

Each HTML file carries a first-line comment naming its invalidation
multicast address::

    <!MULTICAST.234.12.29.72.>

The HTTP server multicasts text messages on that group::

    TRANS:17.0:UPDATE: http://www-DSG.Stanford.EDU/groupMembers.html
    TRANS:17.12:HEARTBEAT
    RETRANS:17.0:UPDATE: http://...

``17`` is the update sequence number, ``12`` the heartbeat index since
that update.  A client that detects a lost update starts "a short
retransmission request timer" (allowing reordering and avoiding NACK
implosion), then asks the server-host logging process for the missing
updates, which replies with RETRANS-tagged messages.

This module provides the exact text codec plus server/browser state
machines.  In this repository the messages ride as LBRM payloads (the
appendix's hand-rolled sequence numbers and heartbeats *are* the LBRM
mechanisms, which is the paper's own observation in §4.3/§7 about
extending the browser "to use the full set of LBRM optimizations"), so
the browser's RELOAD-highlight behaviour is driven by ordinary
``Deliver`` actions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "MULTICAST_COMMENT_RE",
    "parse_multicast_comment",
    "make_multicast_comment",
    "WebMessageKind",
    "WebMessage",
    "HttpInvalidationServer",
    "BrowserClient",
]

MULTICAST_COMMENT_RE = re.compile(r"<!MULTICAST\.(\d+\.\d+\.\d+\.\d+)\.>")


def parse_multicast_comment(html: str) -> str | None:
    """Extract the invalidation group address from an HTML document.

    Only the first line is examined, per the appendix ("a comment in the
    first line").  Returns the dotted-quad string or None.
    """
    first_line, _, _ = html.partition("\n")
    match = MULTICAST_COMMENT_RE.search(first_line)
    return match.group(1) if match else None


def make_multicast_comment(address: str) -> str:
    """Render the first-line comment binding a document to ``address``."""
    if not re.fullmatch(r"\d+\.\d+\.\d+\.\d+", address):
        raise ValueError(f"not a dotted-quad multicast address: {address!r}")
    return f"<!MULTICAST.{address}.>"


class WebMessageKind(Enum):
    UPDATE = "UPDATE"
    HEARTBEAT = "HEARTBEAT"


@dataclass(frozen=True, slots=True)
class WebMessage:
    """One parsed invalidation-protocol message."""

    kind: WebMessageKind
    seq: int
    hb_index: int
    url: str = ""
    retrans: bool = False

    def encode(self) -> str:
        tag = "RETRANS" if self.retrans else "TRANS"
        if self.kind is WebMessageKind.HEARTBEAT:
            return f"{tag}:{self.seq}.{self.hb_index}:HEARTBEAT"
        return f"{tag}:{self.seq}.{self.hb_index}:UPDATE: {self.url}"

    @classmethod
    def decode(cls, text: str) -> "WebMessage":
        match = re.fullmatch(
            r"(TRANS|RETRANS):\s*(\d+)\.(\d+):\s*(UPDATE|HEARTBEAT)(?::\s*(\S+))?",
            text.strip(),
        )
        if match is None:
            raise ValueError(f"malformed invalidation message: {text!r}")
        tag, seq, hb_index, kind, url = match.groups()
        if kind == "UPDATE" and not url:
            raise ValueError(f"UPDATE message without a URL: {text!r}")
        return cls(
            kind=WebMessageKind(kind),
            seq=int(seq),
            hb_index=int(hb_index),
            url=url or "",
            retrans=tag == "RETRANS",
        )


class HttpInvalidationServer:
    """Server side: document store, modification detection, updates.

    ``publish`` registers a document (assigning it the server's group
    address comment); ``modify`` changes its content and returns the
    UPDATE message to multicast.  The update log mirrors what the
    server-host "logging process" serves RETRANS from.
    """

    def __init__(self, group_address: str = "234.12.29.72") -> None:
        self._group_address = group_address
        self._documents: dict[str, str] = {}
        self._seq = 0
        self._update_log: dict[int, WebMessage] = {}
        self.stats = {"updates": 0, "retransmissions": 0}

    @property
    def group_address(self) -> str:
        return self._group_address

    def publish(self, url: str, content: str) -> str:
        """Store a document, prepending the multicast comment line."""
        body = f"{make_multicast_comment(self._group_address)}\n{content}"
        self._documents[url] = body
        return body

    def fetch(self, url: str) -> str:
        """Serve the document (the client's RELOAD path)."""
        return self._documents[url]

    def modify(self, url: str, content: str) -> WebMessage:
        """Change a document; returns the UPDATE message to multicast."""
        if url not in self._documents:
            raise KeyError(f"unknown document {url!r}")
        self._documents[url] = f"{make_multicast_comment(self._group_address)}\n{content}"
        self._seq += 1
        self.stats["updates"] += 1
        message = WebMessage(kind=WebMessageKind.UPDATE, seq=self._seq, hb_index=0, url=url)
        self._update_log[self._seq] = message
        return message

    def heartbeat(self, hb_index: int) -> WebMessage:
        """The idle-channel keep-alive (TRANS:seq.N:HEARTBEAT)."""
        return WebMessage(kind=WebMessageKind.HEARTBEAT, seq=self._seq, hb_index=hb_index)

    def retransmit(self, seqs: list[int]) -> list[WebMessage]:
        """The logging process answering a client's request for misses."""
        replies: list[WebMessage] = []
        for seq in seqs:
            original = self._update_log.get(seq)
            if original is None:
                continue
            self.stats["retransmissions"] += 1
            replies.append(
                WebMessage(
                    kind=original.kind,
                    seq=original.seq,
                    hb_index=original.hb_index,
                    url=original.url,
                    retrans=True,
                )
            )
        return replies


class BrowserClient:
    """Mosaic-side cache with RELOAD-button highlighting.

    "When an update packet arrives, the client sets an invalidation flag
    for the associated cached page.  This flag determines whether to
    highlight the RELOAD button ... cleared when the document has been
    reloaded from the server."
    """

    def __init__(self) -> None:
        self._cache: dict[str, str] = {}
        self._invalid: set[str] = set()
        self._subscriptions: set[str] = set()
        self.stats = {"invalidations": 0, "reloads": 0}

    @property
    def subscriptions(self) -> frozenset[str]:
        """Multicast addresses this browser currently subscribes to."""
        return frozenset(self._subscriptions)

    def display(self, url: str, html: str) -> str | None:
        """Cache and display a fetched page; subscribe per its comment.

        Returns the multicast address newly subscribed to (or None).
        """
        self._cache[url] = html
        self._invalid.discard(url)
        address = parse_multicast_comment(html)
        if address is not None and address not in self._subscriptions:
            self._subscriptions.add(address)
            return address
        return None

    def evict(self, url: str) -> None:
        """Drop a page from the cache (subscription retention is per the
        appendix tied to cache residency; callers unsubscribe when no
        cached page uses an address)."""
        self._cache.pop(url, None)
        self._invalid.discard(url)

    def cached(self, url: str) -> str | None:
        return self._cache.get(url)

    def needs_reload(self, url: str) -> bool:
        """True when the RELOAD button is highlighted for ``url``."""
        return url in self._invalid

    def on_message(self, message: WebMessage) -> bool:
        """Apply a received invalidation message.

        Returns True when a cached page was newly invalidated.
        """
        if message.kind is not WebMessageKind.UPDATE:
            return False
        if message.url in self._cache and message.url not in self._invalid:
            self._invalid.add(message.url)
            self.stats["invalidations"] += 1
            return True
        return False

    def reload(self, url: str, html: str) -> None:
        """The user pressed RELOAD: refresh the cache, clear the flag."""
        self._cache[url] = html
        self._invalid.discard(url)
        self.stats["reloads"] += 1
