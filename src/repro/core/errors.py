"""Exception hierarchy for the LBRM protocol stack.

All errors raised by :mod:`repro.core` derive from :class:`LbrmError` so
applications can catch protocol failures with a single ``except`` clause
while still distinguishing configuration mistakes from wire-level
corruption or log-store misses.
"""

from __future__ import annotations

__all__ = [
    "LbrmError",
    "ConfigError",
    "DecodeError",
    "EncodeError",
    "LogMissError",
]


class LbrmError(Exception):
    """Base class for all LBRM protocol errors."""


class ConfigError(LbrmError):
    """A protocol parameter is out of its legal range.

    Raised eagerly at construction time (e.g. ``h_min <= 0`` or
    ``backoff < 1``) so misconfiguration never reaches the wire.
    """


class DecodeError(LbrmError):
    """A received datagram could not be parsed as an LBRM packet.

    Carries the offending ``data`` so transports can log or count it.
    """

    def __init__(self, message: str, data: bytes = b"") -> None:
        super().__init__(message)
        self.data = data


class EncodeError(LbrmError):
    """A packet could not be serialized (e.g. oversized payload)."""


class LogMissError(LbrmError):
    """A requested sequence number is not (or no longer) in the log."""

    def __init__(self, seq: int) -> None:
        super().__init__(f"sequence {seq} not in log")
        self.seq = seq
