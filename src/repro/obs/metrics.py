"""Metric primitives and the process-wide registry.

Three instrument kinds cover everything the paper's evaluation measures:

* :class:`Counter` — monotone totals (packets sent by type, NACKs,
  retransmissions, log evictions).
* :class:`Gauge` — point-in-time levels (source buffer occupancy,
  log-store size, t_wait, the group-size estimate, queue depth).
* :class:`Histogram` — sampled distributions with p50/p95/p99
  (recovery latency, heartbeat interval evolution).

Instruments are identified by ``(name, labels)`` and owned by a
:class:`MetricsRegistry`.  The registry is deliberately boring: plain
Python attributes, no locks (protocol machines are single-threaded per
harness), and a deterministic :meth:`MetricsRegistry.snapshot` so two
runs with the same seed serialize bit-identically.

The :class:`NullRegistry` is the zero-cost counterpart: every accessor
returns a shared singleton whose mutators are no-ops, so instrumented
code costs one attribute call per event when observability is off and
never allocates.
"""

from __future__ import annotations

import math

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "StatCounters",
    "format_key",
]

Labels = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, labels: Labels) -> str:
    """Render ``(name, labels)`` as the canonical snapshot key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({format_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can go up and down (a level, not a total)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({format_key(self.name, self.labels)}={self.value})"


class Histogram:
    """A sampled distribution with on-demand percentiles.

    Samples are kept raw (protocol runs observe thousands of latencies,
    not millions) and sorted lazily; ``observe`` is an amortized O(1)
    append on the hot path.
    """

    __slots__ = ("name", "labels", "_samples", "_sorted")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._samples: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        samples = self._samples
        if samples and value < samples[-1]:
            self._sorted = False
        samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return math.fsum(self._samples)

    @property
    def min(self) -> float | None:
        return min(self._samples) if self._samples else None

    @property
    def max(self) -> float | None:
        return max(self._samples) if self._samples else None

    @property
    def mean(self) -> float | None:
        return self.total / len(self._samples) if self._samples else None

    def percentile(self, p: float) -> float | None:
        """The ``p``-th percentile (0..100), linearly interpolated.

        Returns ``None`` for an empty histogram; a single sample is every
        percentile of itself.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        samples = self._samples
        if not samples:
            return None
        if not self._sorted:
            samples.sort()
            self._sorted = True
        if len(samples) == 1:
            return samples[0]
        rank = (p / 100.0) * (len(samples) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return samples[lo]
        frac = rank - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    @property
    def p50(self) -> float | None:
        return self.percentile(50.0)

    @property
    def p95(self) -> float | None:
        return self.percentile(95.0)

    @property
    def p99(self) -> float | None:
        return self.percentile(99.0)

    def summary(self) -> dict:
        """Deterministic dict summary for snapshots and reports."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = True

    def __repr__(self) -> str:
        return f"Histogram({format_key(self.name, self.labels)}, n={self.count})"


class MetricsRegistry:
    """Process-wide home of every instrument plus the event trace.

    ``enabled`` is True; instrumented call sites use it (via
    :func:`repro.obs.stat_counters`) to skip mirror bookkeeping entirely
    when the no-op registry is installed instead.
    """

    enabled = True

    def __init__(self, trace_capacity: int = 65536) -> None:
        from repro.obs.trace import EventTrace

        self._counters: dict[tuple[str, Labels], Counter] = {}
        self._gauges: dict[tuple[str, Labels], Gauge] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}
        self.trace = EventTrace(capacity=trace_capacity)

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1])
        return gauge

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(name, key[1])
        return hist

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> int:
        """Current value of a counter; 0 when it was never touched."""
        counter = self._counters.get((name, _label_key(labels)))
        return counter.value if counter is not None else 0

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready dump of every instrument.

        Keys are sorted canonical names (``name{k=v,...}``), so two runs
        recording the same history serialize bit-identically.
        """
        counters = {
            format_key(*key): c.value for key, c in sorted(self._counters.items())
        }
        gauges = {format_key(*key): g.value for key, g in sorted(self._gauges.items())}
        histograms = {
            format_key(*key): h.summary() for key, h in sorted(self._histograms.items())
        }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Zero every instrument and clear the trace, keeping identities.

        Handles the warm-up pattern: machines hold direct references to
        their instruments, so the registry must reset in place rather
        than drop them.
        """
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for hist in self._histograms.values():
            hist.reset()
        self.trace.reset()


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()
    name = ""
    labels: Labels = ()
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = None
    p50 = None
    p95 = None
    p99 = None

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> None:
        return None

    def summary(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The zero-cost observability off-switch (the process default)."""

    enabled = False

    def __init__(self) -> None:
        from repro.obs.trace import NULL_TRACE

        self.trace = NULL_TRACE

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counter_value(self, name: str, **labels: object) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


class StatCounters(dict):
    """A machine-local ``stats`` dict that mirrors into the registry.

    Protocol machines keep per-instance ``stats`` dicts that tests and
    benchmarks read directly; this subclass preserves that contract
    (equality, ``.get``, item access, iteration) while forwarding every
    increment to a registry counter named ``<prefix>.<key>``.  Machines
    built while observability is off get a plain dict instead (see
    :func:`repro.obs.stat_counters`), so the mirror costs nothing in
    no-op mode.
    """

    __slots__ = ("_registry", "_prefix", "_labels", "_instruments")

    def __init__(
        self,
        registry: MetricsRegistry,
        prefix: str,
        initial: dict | None = None,
        **labels: object,
    ) -> None:
        super().__init__()
        self._registry = registry
        self._prefix = prefix
        self._labels = labels
        self._instruments: dict[str, Counter] = {}
        for key, value in (initial or {}).items():
            # Materialize the counter even at zero so reports list it.
            self._instrument(key)
            self[key] = value

    def _instrument(self, key: str) -> Counter:
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._registry.counter(f"{self._prefix}.{key}", **self._labels)
            self._instruments[key] = instrument
        return instrument

    def __setitem__(self, key: str, value: int) -> None:
        delta = value - dict.get(self, key, 0)
        dict.__setitem__(self, key, value)
        if delta:
            # _instrument() inlined for the hit case: stats increments
            # run several times per delivered packet.
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instrument(key)
            instrument.value += delta
