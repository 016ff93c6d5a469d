#!/usr/bin/env python3
"""Where a ledger workload's bytes are (DESIGN §6, "Where the bytes are").

``tools/bytes_census.py [--workload tree_outage] [--per-site]``
(``make bytes W=<workload>``)

For one workload of ``benchmarks/ledger/workloads.py``, at its full size
and the ledger's default seed (the ledger is imported, never edited):

1. RSS phases: this process's peak resident set when the interpreter
   is up, after the program and the ledger are imported, and after one
   unit's world is built and run (``setup`` + ``run``).
2. What a second unit's world still holds at the end of its run, by
   file:line (``tracemalloc``; the largest 20).
3. Bytes per added receiver site and per added exact receiver, in the
   workload's shape: the traced bytes of a small world of that shape,
   settled for 2.5 s of simulated time, at two sizes (``added_bytes``),
   and bytes per logged packet per logger (``logged_packet_bytes``;
   ``tests/simnet/test_bytes_traffic.py`` pins the same numbers).

``--per-site`` prints only part 3 (CI's tier-1 job echoes it).
"""

from __future__ import annotations

import resource


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_INTERPRETER_MB = _peak_rss_mb()  # before anything else is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.core.logger import LogServer  # noqa: E402
from repro.scale.deploy import AggregateDeployment  # noqa: E402
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SEED, TOP = 1995, 20


def exact_world(n_sites: int, receivers_per_site: int, depth: int = 2, fanout: int = 8):
    return LbrmDeployment(DeploymentSpec(
        n_sites=n_sites, receivers_per_site=receivers_per_site, depth=depth, fanout=fanout, seed=1,
    ))


def aggregate_world(n_sites: int):
    return AggregateDeployment(DeploymentSpec(
        n_sites=n_sites, receivers_per_site=100, receiver_loss=0.01, seed=1,
    ))


def _settled(world):
    """``world`` started, synced on one packet, 2.5 s of simulated time on."""
    world.start()
    world.advance(0.5)
    world.send(bytes(64))
    world.advance(2.0)
    return world


def held_bytes(build, n: int) -> int:
    """Bytes ``build(n)``'s settled world holds, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        world = _settled(build(n))  # alive until the count below is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def added_bytes(build, small: int, large: int) -> float:
    """Bytes per unit of ``n`` added, from ``build(small)`` to ``build(large)``.

    A first world is settled untraced, so what the first of its kind
    builds once (compiled codecs, shared tables) is in neither count."""
    _settled(build(small))
    return (held_bytes(build, large) - held_bytes(build, small)) / (large - small)


def logged_packet_bytes(n_sites: int = 20, packets: int = 300) -> float:
    """Bytes a loss-free train of ``packets`` adds per (logger, packet)
    through ``n_sites`` receiver-less sites: every log server logs every
    packet (§2.2), so this is what one log entry costs.  A dict's table
    grows in steps; 300 packets after one warm-up fill it to 301 of 341."""
    world = exact_world(n_sites, 0)
    world.start()
    world.advance(0.5)
    world.send(b"warm-up")
    world.advance(1.0)
    payloads = [b"packet %04d" % i for i in range(packets)]
    gc.collect()
    tracemalloc.start()
    try:
        for payload in payloads:
            world.send(payload)
            world.advance(0.01)
        world.advance(1.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    loggers = sum(isinstance(machine, LogServer) for machine, _ in world.members.values())
    return held / (loggers * packets)


def per_site_lines(name: str, p: dict) -> list[str]:
    """Part 3 for workload ``name`` of sizes ``p``."""
    if name == "agg_sharded":
        kb = added_bytes(aggregate_world, 20, 40) / 1000
        return [f"bytes: {kb:.1f} KB per aggregate site"]
    if "receivers_per_site" not in p:
        return [f"bytes: {name} has no receiver sites"]
    depth = 3 if name == "tree_outage" else 2
    fanout = p.get("fanout", 8)
    rps = p["receivers_per_site"]
    site = added_bytes(lambda n: exact_world(n, rps, depth, fanout), 20, 40) / 1000
    receiver = added_bytes(lambda n: exact_world(10, n // 10, depth, fanout), 50, 100) / 1000
    return [
        f"bytes: {site:.1f} KB per site (depth {depth}, fanout {fanout}, {rps} receivers/site), "
        f"{receiver:.2f} KB per exact receiver, {logged_packet_bytes():.1f} B per logged packet"
    ]


def _load_workloads():
    path = ROOT / "benchmarks" / "ledger" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ledger_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unit(workloads, name: str, p: dict):
    workload = workloads.WORKLOAD_CLASSES[name](SEED, p)
    workload.setup()
    workload.run(lambda: None)
    return workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tree_outage")
    parser.add_argument("--per-site", action="store_true", help="only the per-site line")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    p = workloads.SIZES[args.workload]["full"]
    if args.per_site:
        print("\n".join(per_site_lines(args.workload, p)))
        return 0

    imports_mb = _peak_rss_mb()
    unit = _unit(workloads, args.workload, p)
    world_mb = _peak_rss_mb()
    del unit
    print(f"== {args.workload} (seed {SEED}), peak RSS by phase")
    print(f"  interpreter  {_INTERPRETER_MB:6.1f} MB")
    print(f"  imports      {imports_mb:6.1f} MB  (+{imports_mb - _INTERPRETER_MB:.1f})")
    print(f"  world        {world_mb:6.1f} MB  (+{world_mb - imports_mb:.1f})")

    gc.collect()
    tracemalloc.start()
    unit = _unit(workloads, args.workload, p)
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del unit
    print(f"== held at the end of the run: {held / 1024:,.0f} KiB (traced peak {peak / 1024:,.0f} KiB)")
    print(f"  {'KiB':>8} {'objects':>9}  where")
    for stat in snapshot.statistics("lineno")[:TOP]:
        frame = stat.traceback[0]
        where = Path(frame.filename)
        where = where.relative_to(ROOT) if where.is_relative_to(ROOT) else where
        print(f"  {stat.size / 1024:8,.0f} {stat.count:9,}  {where}:{frame.lineno}")
    print("\n".join(per_site_lines(args.workload, p)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
