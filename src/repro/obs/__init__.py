"""repro.obs — protocol-wide metrics and event-trace observability.

The paper's evaluation is quantitative (heartbeat overhead ratios,
per-site NACK collapse, statistical-ACK retransmission counts); this
package gives every subsystem one shared way to produce those numbers so
benchmarks read measurements instead of hand-rolling counters.

Usage model
-----------

Observability is **off by default and costs nothing**: the process-wide
registry starts as a :class:`~repro.obs.metrics.NullRegistry` whose
instruments are shared no-op singletons.  A harness that wants
measurements installs a real registry *before* building its protocol
machines (machines resolve their instruments at construction time)::

    from repro import obs

    with obs.recording() as reg:
        dep = LbrmDeployment(spec)
        dep.start(); ...
        print(reg.counter_value("receiver.nacks_sent"))
        print(reg.snapshot())

Instrumentation never influences protocol behavior: instruments are
write-only from the machines' perspective, so a run with observability
on is packet-for-packet identical to one with it off (the determinism
regression test asserts this).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    StatCounters,
    format_key,
)
from repro.obs.trace import NULL_TRACE, EventTrace, NullTrace, TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "StatCounters",
    "EventTrace",
    "NullTrace",
    "NULL_TRACE",
    "TraceEvent",
    "format_key",
    "registry",
    "install",
    "uninstall",
    "recording",
    "stat_counters",
]

_NULL_REGISTRY = NullRegistry()
_current: MetricsRegistry | NullRegistry = _NULL_REGISTRY


def registry() -> MetricsRegistry | NullRegistry:
    """The currently installed process-wide registry (no-op by default)."""
    return _current


def install(reg: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``reg`` (or a fresh registry) as the process-wide one."""
    global _current
    _current = reg if reg is not None else MetricsRegistry()
    return _current


def uninstall() -> None:
    """Return the process to the zero-cost no-op registry."""
    global _current
    _current = _NULL_REGISTRY


@contextmanager
def recording(reg: MetricsRegistry | None = None):
    """Context manager: install a registry, restore the previous on exit.

    Nests correctly, so a benchmark can run isolated measurement windows
    back to back without leaking counts between them.
    """
    global _current
    previous = _current
    installed = reg if reg is not None else MetricsRegistry()
    _current = installed
    try:
        yield installed
    finally:
        _current = previous


def stat_counters(prefix: str, initial: dict | None = None, **labels: object) -> dict:
    """Build a machine ``stats`` dict, registry-mirrored when recording.

    With observability off this returns a plain dict — the machine's hot
    path then runs exactly the pre-instrumentation code.  While a real
    registry is installed, it returns a :class:`StatCounters` whose item
    assignments also bump ``<prefix>.<key>`` counters (labelled, e.g.
    ``node=primary``) in the registry.
    """
    reg = _current
    if not reg.enabled:
        return dict(initial or {})
    return StatCounters(reg, prefix, initial, **labels)
