"""The traffic the absence of a codec memo rests on (DESIGN §6, "There
is no codec memo").

``packets.encode``/``packets.decode`` are the struct codec with nothing
in front of it because the exact runtime hands packet *objects* from
machine to machine: it encodes only to learn a size, once per
``wire_size`` cache key, never decodes, and never hashes a packet.  This
test pins that on the lossy deployment of ``test_engine_traffic``.
Whoever makes a runtime encode or decode per packet fails it, and
should reopen the memo question knowingly — with the per-workload hit
ratios DESIGN §6 tables, not with a 64-packet loop.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core import packets
from repro.simnet import topology

from .test_engine_traffic import _lossy_run


def test_exact_runtime_encodes_once_per_size_key_and_never_decodes_or_hashes(monkeypatch):
    calls: Counter = Counter()

    def counted(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    # Module-level codec functions are imported by name into their
    # callers: count through every ``repro.*`` global bound to them.
    for name in ("encode", "decode", "decode_from"):
        original = getattr(packets, name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    for cls in packets._REGISTRY.values():
        monkeypatch.setattr(cls, "__hash__", counted("hash", cls.__hash__))
    sizes: dict[int, int] = {}
    monkeypatch.setattr(topology, "_SIZE_CACHE", sizes)  # cold, and restored after

    _lossy_run(receivers_per_site=5)

    assert len(sizes) >= 4  # DATA, HEARTBEAT, NACK, RETRANS at the least
    assert calls["encode"] == len(sizes)
    assert calls["decode"] == calls["decode_from"] == 0
    assert calls["hash"] == 0
