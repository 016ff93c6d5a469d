"""Span tracing from outside the program.

The ledger records one span per call into each layer's public entry
point — name, start, end, and the span that caused it — by wrapping
those entry points *from this file*; nothing under ``src/`` knows it is
being traced (spans inside ``src/`` are a later issue).  A layer's self
time is its spans' duration minus the part their child spans cover.

Two caveats the README repeats beside every number:

* only public names are wrapped, so whatever a public entry point calls
  through private ones is charged to it (``simnet.engine.run`` carries
  the delivery fan-out loop, ``Network._arrive_batch``);
* the wrapper's own cost (two clock reads, a few list writes, ~1 µs)
  lands in the *parent's* self time, so layers called a million times
  inflate their caller.  ``trace.overhead_ratio`` is that cost.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

__all__ = ["ENTRY_POINTS", "SPAN_SAMPLE", "Tracer"]

# Raw spans kept per traced pass (the first N); aggregates cover all.
SPAN_SAMPLE = 10_000

# (span name, module, class or None for a module-level function, attribute)
ENTRY_POINTS = [
    ("simnet.engine.run", "repro.simnet.engine", "Simulator", "run_until"),
    ("simnet.topology.multicast", "repro.simnet.topology", "Network", "send_multicast"),
    ("simnet.topology.unicast", "repro.simnet.topology", "Network", "send_unicast"),
    ("simnet.loss.draw", "repro.simnet.loss", "BernoulliLoss", "drops"),
    ("simnet.loss.draw", "repro.simnet.loss", "BernoulliLoss", "drops_batch"),
    ("simnet.loss.draw", "repro.simnet.loss", "BurstLoss", "drops"),
    ("simnet.loss.draw", "repro.simnet.loss", "BurstLoss", "drops_batch"),
    ("simnet.node.receive", "repro.simnet.node", "SimNode", "receive"),
    ("simnet.node.poll", "repro.simnet.node", "SimNode", "poll"),
    ("core.sender.send", "repro.core.sender", "LbrmSender", "send"),
    ("core.sender.handle", "repro.core.sender", "LbrmSender", "handle"),
    ("core.sender.poll", "repro.core.sender", "LbrmSender", "poll"),
    ("core.receiver.handle", "repro.core.receiver", "LbrmReceiver", "handle"),
    ("core.receiver.poll", "repro.core.receiver", "LbrmReceiver", "poll"),
    ("core.logger.handle", "repro.core.logger", "LogServer", "handle"),
    ("core.logger.poll", "repro.core.logger", "LogServer", "poll"),
    ("core.logger.append", "repro.core.log_store", "PacketLog", "append"),
    ("core.statack", "repro.core.statack", "StatAckSource", "handle"),
    ("core.statack", "repro.core.statack", "StatAckSource", "poll"),
    ("core.statack", "repro.core.statack", "StatAckSource", "on_data_sent"),
    ("core.statack", "repro.core.statack", "StatAckSource", "on_remulticast_sent"),
    ("core.hierarchy.rescore", "repro.core.hierarchy", "TreeManager", "rescore"),
    ("core.packets.encode", "repro.core.packets", None, "encode"),
    ("core.packets.encode", "repro.core.packets", None, "encode_uncached"),
    ("core.packets.encode", "repro.core.packets", None, "encode_bundle"),
    ("core.packets.decode", "repro.core.packets", None, "decode"),
    ("core.packets.decode", "repro.core.packets", None, "decode_from"),
    ("core.packets.decode", "repro.core.packets", None, "iter_bundle"),
    ("scale.aggregate.handle", "repro.scale.aggregate", "AggregateSiteReceiver", "handle"),
    ("scale.aggregate.poll", "repro.scale.aggregate", "AggregateSiteReceiver", "poll"),
    ("aio.node.send_many", "repro.aio.node", "AioNode", "send_many"),
]


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        # (span id, parent id, name, start, end); id 0 is "no parent".
        self.spans: list[tuple[int, int, str, float, float]] = []
        # The innermost open span: [child seconds, span id, name].
        self._open = [0.0, 0, None]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        cell = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        spans = self.spans

        def enter():
            parent = self._open
            self._next_id = span_id = self._next_id + 1
            frame = self._open = [0.0, span_id, name]
            return parent, frame, clock()

        def leave(parent, frame, start):
            end = clock()
            took = end - start
            self._open = parent
            parent[0] += took
            if parent[2] is not name:
                # A layer calling itself (encode -> encode_uncached on a
                # memo miss, BurstLoss -> its base model) is one call.
                cell[0] += 1
            cell[1] += took
            cell[2] += took - frame[0]
            if len(spans) < SPAN_SAMPLE:
                spans.append((frame[1], parent[1], name, start, end))

        if inspect.iscoroutinefunction(fn):
            # The span lasts until the coroutine returns.  Spans nest by
            # time, so this is only right for coroutines that never truly
            # suspend on the measured path: AioNode.send_many awaits
            # nothing but group joins, which happen at start-up.
            async def traced(*args, **kwargs):
                state = enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(*state)
        else:
            def traced(*args, **kwargs):
                state = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(*state)

        return traced

    def install(self) -> None:
        """Wrap every entry point, wherever ``repro`` already bound it.

        Module-level functions (``packets.encode`` …) are imported by
        name into their callers, so every ``repro.*`` module global that
        *is* the original function is replaced as well.
        """
        # Import everything first: a module imported half-way through
        # would bind an already-wrapped function that uninstall misses.
        for _name, module_name, _class_name, _attr in ENTRY_POINTS:
            importlib.import_module(module_name)
        for name, module_name, class_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            holders = [owner]
            if class_name is None:
                holders += [
                    mod for mod_name, mod in list(sys.modules.items())
                    if mod is not None and mod is not module
                    and mod_name.startswith("repro.")
                    and vars(mod).get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay in place)."""
        for cell in self.totals.values():
            cell[:] = [0, 0.0, 0.0]
        self.spans.clear()

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def attributed_s(self) -> float:
        """Seconds inside any span (the sum of every span's self time)."""
        return sum(cell[2] for cell in self.totals.values())

    def to_json(self) -> dict:
        origin = min((span[3] for span in self.spans), default=0.0)
        names = sorted(self.totals)
        index = {name: i for i, name in enumerate(names)}
        return {
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "span_sample_cap": SPAN_SAMPLE,
            "span_names": names,
            "span_fields": ["id", "parent", "name_index", "start_us", "end_us"],
            "spans": [
                [sid, parent, index[name],
                 round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)]
                for sid, parent, name, start, end in self.spans
            ],
        }
