"""Packet log storage for logging servers (§2).

"The length of time that the logging server must store a packet is
application-specific.  Some applications may only store packets until
their 'useful lifetime' has expired.  Other applications with stronger
persistence needs may log all packets, writing them to disk once
in-memory buffers are full."

:class:`PacketLog` implements both policies: optional entry lifetime,
an optional in-memory cap, and an optional append-only disk spool that
oldest entries overflow into (they remain retrievable, just slower —
exactly the paper's memory-then-disk model).
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict

from repro import obs
from repro.core.errors import LogMissError
from repro.core.packets import RetransPacket

__all__ = ["PacketLog"]

_SPOOL_HEADER = struct.Struct("!QdI")  # seq, logged_at, payload length


def _payload(slot: bytes | RetransPacket) -> bytes:
    return slot.payload if type(slot) is RetransPacket else slot


class PacketLog:
    """Sequence-indexed store of transmitted packets.

    A logged packet costs one mapping slot, ``_slots[seq]``: its payload
    (the bytes object the packet carried), or from its first NACK on the
    log server's one shared repair packet carrying it, which so lives
    exactly as long as the entry.  A spooled entry is read back as fresh
    bytes, so its repair is never kept.  Log times are kept only by a
    log that expires or spools, FIFO order only under a cap.

    Invariants (property-tested):

    * ``get(seq)`` returns exactly what was appended for ``seq`` until it
      expires or is evicted past the cap.
    * append is idempotent: re-logging a sequence already held (e.g. a
      retransmission observed on the group) never changes the payload.
    * memory use never exceeds ``max_packets`` when set; overflow goes
      to the spool when configured, otherwise the oldest entries are
      dropped.
    """

    def __init__(
        self,
        max_packets: int = 0,
        lifetime: float = 0.0,
        spool_path: str | None = None,
    ) -> None:
        self._max_packets = max_packets
        self._lifetime = lifetime
        # A plain dict's FIFO eviction is O(n); only a capped log pays
        # for OrderedDict's O(1) popitem.
        self._slots: dict[int, bytes | RetransPacket] = OrderedDict() if max_packets else {}
        self._times: dict[int, float] | None = {} if lifetime or spool_path else None
        self._byte_size = 0
        self._spool_index: dict[int, tuple[int, int, float]] = {}  # seq -> (offset, len, logged_at)
        self._spool_file = None
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
    def highest(self) -> int | None:
        """Largest retrievable sequence number."""
        candidates = []
        if self._slots:
            candidates.append(max(self._slots))
        if self._spool_index:
            candidates.append(max(self._spool_index))
        return max(candidates) if candidates else None

    def __len__(self) -> int:
        return len(self._slots) + len(self._spool_index)

    def __contains__(self, seq: int) -> bool:
        return seq in self._slots or seq in self._spool_index

    # -- mutation ----------------------------------------------------------

    def append(self, seq: int, payload: bytes, now: float) -> bool:
        """Log ``payload`` under ``seq``.  Returns False if already held."""
        slots = self._slots
        if seq in slots or seq in self._spool_index:
            return False
        slots[seq] = payload
        if self._times is not None:
            self._times[seq] = now
        self._byte_size += len(payload)
        self._obs_appended.inc()
        # Over the cap (none by default), the oldest entries overflow to
        # the spool, or are lost without one.
        while self._max_packets and len(slots) > self._max_packets:
            old, slot = slots.popitem(last=False)
            self._byte_size -= len(_payload(slot))
            if self._spool_file is not None:
                self._write_spool(old, _payload(slot), self._times.pop(old))
                self._obs_spooled.inc()
            else:
                if self._times is not None:
                    del self._times[old]
                self._obs_evicted.inc()
        return True

    def get(self, seq: int, now: float | None = None) -> bytes:
        """Retrieve the payload logged for ``seq``.

        Raises :class:`~repro.core.errors.LogMissError` when the sequence
        was never logged, expired, or was evicted without a spool.
        """
        if now is not None and self._lifetime:
            self.expire(now)
        payload = self.peek(seq)
        if payload is None:
            raise LogMissError(seq)
        return payload

    def peek(self, seq: int) -> bytes | None:
        """:meth:`get` without expiry or a miss exception.

        For callers that already ran :meth:`expire` and treat a miss as a
        normal branch (replication catch-up, a NACK the memory slots
        missed), this replaces a ``seq in log`` probe followed by ``get``
        with one lookup.
        """
        slot = self._slots.get(seq)
        if slot is not None:
            return _payload(slot)
        spooled = self._spool_index.get(seq)
        if spooled is not None:
            return self._read_spool(seq, *spooled)
        return None

    def expire(self, now: float) -> int:
        """Drop entries older than the configured lifetime.  Returns count."""
        if not self._lifetime:
            return 0
        cutoff = now - self._lifetime
        expired = [seq for seq, t in self._times.items() if t < cutoff]
        for seq in expired:
            del self._times[seq]
            self._byte_size -= len(_payload(self._slots.pop(seq)))
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
        doomed = [s for s in self._slots if s < seq]
        for s in doomed:
            self._byte_size -= len(_payload(self._slots.pop(s)))
            if self._times is not None:
                del self._times[s]
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

    def _write_spool(self, seq: int, payload: bytes, logged_at: float) -> None:
        assert self._spool_file is not None
        self._spool_file.seek(0, os.SEEK_END)
        offset = self._spool_file.tell()
        self._spool_file.write(_SPOOL_HEADER.pack(seq, logged_at, len(payload)))
        self._spool_file.write(payload)
        self._spool_file.flush()
        self._spool_index[seq] = (offset, len(payload), logged_at)

    def _read_spool(self, seq: int, offset: int, length: int, logged_at: float) -> bytes:
        assert self._spool_file is not None
        self._spool_file.seek(offset)
        header = self._spool_file.read(_SPOOL_HEADER.size)
        stored_seq, _, stored_len = _SPOOL_HEADER.unpack(header)
        if stored_seq != seq or stored_len != length:
            raise LogMissError(seq)
        return self._spool_file.read(stored_len)
