"""Distributed cache invalidation over LBRM (§4.1, §4.2).

The paper frames dynamic terrain as "a specific case of the distributed
cache update problem" and proposes LBRM as an alternative to leases for
file-cache consistency: clients subscribe to an invalidation channel per
server; losing the channel's heartbeat (FreshnessLost) is the moral
equivalent of a lease expiring, so the client invalidates its whole
cache.

:class:`InvalidationServer` publishes keyed invalidations (optionally
carrying the new value, i.e. cache *refresh*); :class:`CacheClient`
wraps an :class:`~repro.core.receiver.LbrmReceiver` application-side:
feed it the receiver's ``Deliver``/``Notify`` actions and read cached
values back.  :class:`LeaseClient` implements the classic Gray &
Cheriton lease for the comparison benchmark.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.core.actions import Deliver
from repro.core.events import Event, FreshnessLost, FreshnessRestored

__all__ = [
    "InvalidationKind",
    "InvalidationMessage",
    "InvalidationServer",
    "CacheClient",
    "LeaseClient",
]


class InvalidationKind(IntEnum):
    INVALIDATE = 0  # drop the cached value
    REFRESH = 1  # replace the cached value with the attached one


@dataclass(frozen=True, slots=True)
class InvalidationMessage:
    """Payload format for invalidation channels."""

    kind: InvalidationKind
    key: str
    value: bytes = b""
    version: int = 0

    def encode(self) -> bytes:
        key_raw = self.key.encode("utf-8")
        return (
            struct.pack("!BHQI", int(self.kind), len(key_raw), self.version, len(self.value))
            + key_raw
            + self.value
        )

    @classmethod
    def decode(cls, data: bytes) -> "InvalidationMessage":
        kind, key_len, version, value_len = struct.unpack_from("!BHQI", data, 0)
        offset = struct.calcsize("!BHQI")
        key = data[offset : offset + key_len].decode("utf-8")
        value = data[offset + key_len : offset + key_len + value_len]
        return cls(kind=InvalidationKind(kind), key=key, value=value, version=version)


class InvalidationServer:
    """Server-side state: versions per key and payload construction.

    The transport is whatever LBRM sender the application owns; this
    class only builds the payloads so it stays usable over both simnet
    and asyncio deployments.
    """

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}
        self.stats = {"invalidations": 0, "refreshes": 0}

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)

    def invalidate(self, key: str) -> bytes:
        """Payload announcing that ``key``'s cached copies are stale."""
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        self.stats["invalidations"] += 1
        return InvalidationMessage(InvalidationKind.INVALIDATE, key, version=version).encode()

    def refresh(self, key: str, value: bytes) -> bytes:
        """Payload carrying ``key``'s new value (invalidate + refill)."""
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        self.stats["refreshes"] += 1
        return InvalidationMessage(InvalidationKind.REFRESH, key, value=value, version=version).encode()


class CacheClient:
    """Client cache keeping consistency from an LBRM invalidation channel.

    Wire it to a receiver by passing delivered payloads to
    :meth:`on_deliver` and protocol events to :meth:`on_event`.  On
    FreshnessLost the entire cache is invalidated — "this action occurs
    in time comparable to a lease timeout" (§4.2) but requires none of
    the per-file lease bookkeeping.
    """

    def __init__(self) -> None:
        self._cache: dict[str, bytes] = {}
        self._versions: dict[str, int] = {}
        self._connected = True
        self.stats = {
            "invalidated_keys": 0,
            "refreshed_keys": 0,
            "stale_dropped": 0,
            "full_invalidations": 0,
        }

    @property
    def connected(self) -> bool:
        """False while the channel's freshness guarantee is broken."""
        return self._connected

    def put(self, key: str, value: bytes) -> None:
        """Populate the cache (e.g. after a demand fetch from the server)."""
        self._cache[key] = value

    def get(self, key: str) -> bytes | None:
        """Cached value, or None when absent/invalidated/disconnected."""
        if not self._connected:
            return None
        return self._cache.get(key)

    def on_deliver(self, delivery: Deliver) -> None:
        message = InvalidationMessage.decode(delivery.payload)
        if message.version <= self._versions.get(message.key, 0):
            self.stats["stale_dropped"] += 1
            return
        self._versions[message.key] = message.version
        if message.kind is InvalidationKind.REFRESH:
            self._cache[message.key] = message.value
            self.stats["refreshed_keys"] += 1
        else:
            self._cache.pop(message.key, None)
            self.stats["invalidated_keys"] += 1

    def on_event(self, event: Event) -> None:
        if isinstance(event, FreshnessLost):
            # Lease-expiry analogue: everything may be stale now.
            self._connected = False
            self._cache.clear()
            self._versions.clear()
            self.stats["full_invalidations"] += 1
        elif isinstance(event, FreshnessRestored):
            self._connected = True


class LeaseClient:
    """Gray & Cheriton-style leasing comparator (§4.2).

    Each cached key carries a lease expiring ``lease_term`` after grant;
    reading an expired key requires a renewal round-trip to the server.
    The comparison benchmark counts renewal traffic against LBRM's
    single heartbeat channel.
    """

    def __init__(self, lease_term: float = 10.0) -> None:
        if lease_term <= 0:
            raise ValueError(f"lease_term must be positive, got {lease_term}")
        self._term = lease_term
        self._cache: dict[str, bytes] = {}
        self._expiry: dict[str, float] = {}
        self.stats = {"renewals": 0, "expired_reads": 0}

    def put(self, key: str, value: bytes, now: float) -> None:
        self._cache[key] = value
        self._expiry[key] = now + self._term

    def get(self, key: str, now: float) -> bytes | None:
        """Value if the lease is valid; None means a server round-trip."""
        expiry = self._expiry.get(key)
        if expiry is None:
            return None
        if now >= expiry:
            self.stats["expired_reads"] += 1
            return None
        return self._cache.get(key)

    def renew(self, key: str, now: float) -> None:
        """Record a renewal round-trip completing at ``now``."""
        if key in self._cache:
            self.stats["renewals"] += 1
            self._expiry[key] = now + self._term

    def renewals_required(self, n_keys: int, duration: float) -> float:
        """Renewal messages needed to keep ``n_keys`` continuously valid."""
        return n_keys * (duration / self._term)
