"""Packet log storage for logging servers (§2).

"The length of time that the logging server must store a packet is
application-specific.  Some applications may only store packets until
their 'useful lifetime' has expired.  Other applications with stronger
persistence needs may log all packets, writing them to disk once
in-memory buffers are full."

:class:`PacketLog` implements both policies: optional entry lifetime,
optional in-memory caps, and an optional append-only disk spool that
oldest entries overflow into (they remain retrievable, just slower —
exactly the paper's memory-then-disk model).
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.core.errors import LogMissError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packets import RetransPacket

__all__ = ["LogEntry", "PacketLog"]

_SPOOL_HEADER = struct.Struct("!QdI")  # seq, logged_at, payload length


@dataclass(slots=True)
class LogEntry:
    """One logged packet: its sequence number, payload, and log time.

    ``repair`` is the log server's one shared repair packet for it, made
    at the first NACK: it lives exactly as long as the entry.  A spooled
    entry is read back as a fresh object, so its repair is never kept.
    """

    seq: int
    payload: bytes
    logged_at: float
    repair: RetransPacket | None = field(default=None, compare=False)


class PacketLog:
    """Sequence-indexed store of transmitted packets.

    Invariants (property-tested):

    * ``get(seq)`` returns exactly what was appended for ``seq`` until it
      expires or is evicted past every cap.
    * append is idempotent: re-logging a sequence already held (e.g. a
      retransmission observed on the group) never changes the payload.
    * memory use never exceeds ``max_packets``/``max_bytes`` when set;
      overflow goes to the spool when configured, otherwise the oldest
      entries are dropped.
    """

    def __init__(
        self,
        max_packets: int = 0,
        max_bytes: int = 0,
        lifetime: float = 0.0,
        spool_path: str | None = None,
    ) -> None:
        self._max_packets = max_packets
        self._max_bytes = max_bytes
        self._lifetime = lifetime
        self._entries: "OrderedDict[int, LogEntry]" = OrderedDict()
        self._byte_size = 0
        self._spool_path = spool_path
        self._spool_index: dict[int, tuple[int, int, float]] = {}  # seq -> (offset, len, logged_at)
        self._spool_file = None
        self._dropped = 0
        # Process-wide totals across every PacketLog instance; per-store
        # levels are published by the owning LogServer's labelled gauges.
        registry = obs.registry()
        self._obs_appended = registry.counter("log_store.appended")
        self._obs_expired = registry.counter("log_store.expired")
        self._obs_evicted = registry.counter("log_store.evicted")
        self._obs_spooled = registry.counter("log_store.spooled")
        if spool_path is not None:
            self._spool_file = open(spool_path, "a+b")

    # -- introspection ----------------------------------------------------

    @property
    def byte_size(self) -> int:
        """Total payload bytes currently held in memory."""
        return self._byte_size

    @property
    def dropped(self) -> int:
        """Entries evicted without spool (lost to the log forever)."""
        return self._dropped

    @property
    def lowest(self) -> int | None:
        """Smallest retrievable sequence number (memory or spool).

        Entries usually arrive in sequence order, but retransmissions
        observed on the group can append out of order — so this scans
        keys rather than trusting insertion order.
        """
        candidates = []
        if self._entries:
            candidates.append(min(self._entries))
        if self._spool_index:
            candidates.append(min(self._spool_index))
        return min(candidates) if candidates else None

    @property
    def highest(self) -> int | None:
        """Largest retrievable sequence number."""
        candidates = []
        if self._entries:
            candidates.append(max(self._entries))
        if self._spool_index:
            candidates.append(max(self._spool_index))
        return max(candidates) if candidates else None

    def __len__(self) -> int:
        return len(self._entries) + len(self._spool_index)

    def __contains__(self, seq: int) -> bool:
        return seq in self._entries or seq in self._spool_index

    # -- mutation ----------------------------------------------------------

    def append(self, seq: int, payload: bytes, now: float) -> bool:
        """Log ``payload`` under ``seq``.  Returns False if already held."""
        if seq in self._entries or seq in self._spool_index:
            return False
        entries = self._entries
        entries[seq] = LogEntry(seq=seq, payload=payload, logged_at=now)
        self._byte_size += len(payload)
        self._obs_appended.inc()
        # Over a cap (none by default), the oldest entries overflow to the
        # spool, or are lost without one.
        while (self._max_packets and len(entries) > self._max_packets) or (
            self._max_bytes and self._byte_size > self._max_bytes
        ):
            _, entry = entries.popitem(last=False)
            self._byte_size -= len(entry.payload)
            if self._spool_file is not None:
                self._write_spool(entry)
                self._obs_spooled.inc()
            else:
                self._dropped += 1
                self._obs_evicted.inc()
        return True

    def get(self, seq: int, now: float | None = None) -> LogEntry:
        """Retrieve the entry for ``seq``.

        Raises :class:`~repro.core.errors.LogMissError` when the sequence
        was never logged, expired, or was evicted without a spool.
        """
        if now is not None and self._lifetime:
            self.expire(now)
        entry = self._entries.get(seq)
        if entry is not None:
            return entry
        spooled = self._spool_index.get(seq)
        if spooled is not None:
            return self._read_spool(seq, *spooled)
        raise LogMissError(seq)

    def peek(self, seq: int) -> LogEntry | None:
        """:meth:`get` without expiry or a miss exception.

        For callers that already ran :meth:`expire` and treat a miss as a
        normal branch (the NACK service path), this replaces a
        ``seq in log`` probe followed by ``get`` with one lookup.
        """
        entry = self._entries.get(seq)
        if entry is not None:
            return entry
        spooled = self._spool_index.get(seq)
        if spooled is not None:
            return self._read_spool(seq, *spooled)
        return None

    def expire(self, now: float) -> int:
        """Drop entries older than the configured lifetime.  Returns count."""
        if not self._lifetime:
            return 0
        cutoff = now - self._lifetime
        expired = [seq for seq, e in self._entries.items() if e.logged_at < cutoff]
        for seq in expired:
            entry = self._entries.pop(seq)
            self._byte_size -= len(entry.payload)
        spool_expired = [seq for seq, (_, _, t) in self._spool_index.items() if t < cutoff]
        for seq in spool_expired:
            del self._spool_index[seq]
        total = len(expired) + len(spool_expired)
        if total:
            self._obs_expired.inc(total)
        return total

    def trim_below(self, seq: int) -> int:
        """Discard every entry with sequence < ``seq`` (e.g. after the
        application declares old state superseded).  Returns count."""
        doomed = [s for s in self._entries if s < seq]
        for s in doomed:
            entry = self._entries.pop(s)
            self._byte_size -= len(entry.payload)
        spool_doomed = [s for s in self._spool_index if s < seq]
        for s in spool_doomed:
            del self._spool_index[s]
        return len(doomed) + len(spool_doomed)

    def close(self) -> None:
        """Close the spool file, if any."""
        if self._spool_file is not None:
            self._spool_file.close()
            self._spool_file = None

    # -- internals ----------------------------------------------------------

    def _write_spool(self, entry: LogEntry) -> None:
        assert self._spool_file is not None
        self._spool_file.seek(0, os.SEEK_END)
        offset = self._spool_file.tell()
        self._spool_file.write(_SPOOL_HEADER.pack(entry.seq, entry.logged_at, len(entry.payload)))
        self._spool_file.write(entry.payload)
        self._spool_file.flush()
        self._spool_index[entry.seq] = (offset, len(entry.payload), entry.logged_at)

    def _read_spool(self, seq: int, offset: int, length: int, logged_at: float) -> LogEntry:
        assert self._spool_file is not None
        self._spool_file.seek(offset)
        header = self._spool_file.read(_SPOOL_HEADER.size)
        stored_seq, stored_at, stored_len = _SPOOL_HEADER.unpack(header)
        if stored_seq != seq or stored_len != length:
            raise LogMissError(seq)
        payload = self._spool_file.read(stored_len)
        return LogEntry(seq=seq, payload=payload, logged_at=stored_at)
