"""``repro bench`` — the machine-readable performance harness.

Every scenario runs one deterministic workload once, in the
configuration the package ships (binary-heap engine, batched multicast
fan-out, memoized struct codecs, bundled zero-copy UDP), asserts
scenario-specific invariants, and records throughput.  Results are
written as ``BENCH_<scenario>.json`` files in ``benchmarks/results/``;
``--check`` gates a fresh run against the committed ones (the perf
history across PRs is the ledger, ``benchmarks/ledger``):

* ``events_per_sec`` — scenario work units (deliveries, requests) per
  wall-clock second.
* ``sim_events`` — events the engine actually executed (batching makes
  this *smaller* than ``events`` for the same history).
* ``peak_queue_depth`` — high-water mark of live pending events, read
  off the simulator.

Run via ``python -m repro bench --quick`` (or ``--full`` for
paper-scale populations, ``--jobs N`` for multiprocessing across
scenarios).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from repro.core import packets
from repro.core.config import LbrmConfig, LoggerConfig, ReceiverConfig
from repro.core.actions import SendMulticast, SendUnicast
from repro.core.events import RecoveryComplete
from repro.core.logger import LoggerRole, LogServer
from repro.core.packets import NackPacket
from repro.scale.shard import ScaleScenario, run_sharded
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment

__all__ = [
    "SCENARIOS",
    "SCALE_SCENARIOS",
    "AIO_SCENARIOS",
    "HIERARCHY_SCENARIOS",
    "ALL_SCENARIOS",
    "aio_available",
    "run_scenario",
    "write_result",
    "main",
]

RESULTS_DIR = Path(__file__).resolve().parent / "results"


# -- scenarios ---------------------------------------------------------------


def _fig7_params(tier: str) -> dict:
    if tier == "full":
        # A long steady-state train keeps the timed region ~1s so the
        # rate is reproducible run to run; best-of-5 for stability.
        return {"n_sites": 50, "receivers_per_site": 20, "data_packets": 40,
                "spacing": 0.25, "repeats": 5}
    return {"n_sites": 10, "receivers_per_site": 5, "data_packets": 5,
            "spacing": 0.25, "repeats": 1}


def scenario_fig7_nack_reduction(tier: str) -> dict:
    """Figure 7's world under load: site-wide loss plus steady traffic.

    The timed region covers protocol start, a warm-up packet, a
    tail-circuit burst that costs one site an update (the per-site NACK
    collapse), NACK-driven recovery, and a steady-state packet train —
    the last exercising the timer churn (receiver watchdogs, heartbeat
    backoff) that the wakeup mux folds into shared deadlines.  Building the
    deployment object graph is excluded: the harness measures
    simulation throughput, not setup.
    """
    p = _fig7_params(tier)
    best = None
    for _ in range(p["repeats"]):
        # No recording registry: the harness measures protocol + engine
        # throughput, and queue depths read off the simulator directly.
        dep = LbrmDeployment(
            DeploymentSpec(
                n_sites=p["n_sites"],
                receivers_per_site=p["receivers_per_site"],
                seed=1995,
            )
        )
        t0 = time.perf_counter()
        dep.start()
        dep.advance(0.2)
        dep.send(b"warm-up")
        dep.advance(1.0)
        dep.burst_site("site1", duration=0.1)
        dep.send(b"the update")
        dep.advance(5.0)
        for i in range(p["data_packets"]):
            dep.send(f"steady-{i}".encode())
            dep.advance(p["spacing"])
        dep.advance(5.0)
        wall = time.perf_counter() - t0
        delivered = dep.network.stats["delivered"]
        wan_nacks = dep.trace.cross_site_nacks()
        recovered = dep.receivers_with(2)
        run = {
            "wall_s": wall,
            "events": delivered,
            "events_per_sec": delivered / wall,
            "sim_events": dep.sim.processed,
            "peak_queue_depth": dep.sim.peak_pending,
            "final_queue_depth": dep.sim.pending,
            "tombstones": dep.sim.tombstones,
            "checks": {
                "wan_nacks": wan_nacks,
                "recovered_receivers": recovered,
                "delivered": delivered,
                "dropped": dep.network.stats["dropped"],
            },
        }
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    best["params"] = p
    return best


def _logger_params(tier: str) -> dict:
    if tier == "full":
        # Long enough that the wall time (~0.3s) is not dominated by
        # scheduler noise; best-of-5 for stability.
        return {"requests": 80000, "log_entries": 200, "payload": 128, "repeats": 5}
    return {"requests": 2000, "log_entries": 200, "payload": 128, "repeats": 1}


def scenario_logger_throughput(tier: str) -> dict:
    """§3's saturation test: the full decode → serve → encode request path.

    Each iteration is one complete repair round trip: encode the NACK,
    decode it at the logger, serve it, encode every reply packet, and
    decode the reply back at the requesting receiver — the full
    per-request codec+protocol cost a deployed repair path pays.  The
    paper's RS/6000 did one request per 630 µs; ours is four struct-codec
    calls around one ``LogServer.handle``.
    """
    p = _logger_params(tier)
    best = None
    for _ in range(p["repeats"]):
        logger = LogServer("g", addr_token="sec", config=LbrmConfig(),
                           role=LoggerRole.SECONDARY)
        payload = b"x" * p["payload"]
        for seq in range(1, p["log_entries"] + 1):
            logger.log.append(seq, payload, now=0.0)
            logger.tracker.observe_data(seq)
        # 64 distinct (request, requester) pairs, rotated.  Construction
        # happens outside the timed loop — the path under test starts at
        # encode, and every encode/decode runs the struct codec.
        requests = [NackPacket(group="g", seqs=(100 + j,)) for j in range(64)]
        requesters = [f"rx{j}" for j in range(64)]
        served = 0
        encoded_bytes = 0
        t0 = time.perf_counter()
        for i in range(p["requests"]):
            j = i & 63
            wire = packets.encode(requests[j])
            request = packets.decode(wire)
            actions = logger.handle(request, requesters[j], 1.0)
            for action in actions:
                t = type(action)
                reply = action.packet if (t is SendUnicast or t is SendMulticast) else None
                if reply is not None:
                    reply_wire = packets.encode(reply)
                    encoded_bytes += len(reply_wire)
                    packets.decode(reply_wire)  # receiver side of the trip
                    served += 1
        wall = time.perf_counter() - t0
        run = {
            "wall_s": wall,
            "events": p["requests"],
            "events_per_sec": p["requests"] / wall,
            "per_request_us": wall * 1e6 / p["requests"],
            "sim_events": 0,
            "peak_queue_depth": 0,
            "checks": {"served": served, "encoded_bytes": encoded_bytes},
        }
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    best["params"] = p
    return best


def _fanout_params(tier: str) -> dict:
    if tier == "full":
        return {"n_sites": 50, "receivers_per_site": 20, "data_packets": 40,
                "spacing": 0.05, "repeats": 3}
    return {"n_sites": 10, "receivers_per_site": 5, "data_packets": 10,
            "spacing": 0.05, "repeats": 1}


def scenario_multicast_fanout(tier: str) -> dict:
    """Raw fan-out throughput: a dense packet train, no loss.

    Isolates the cost batched fan-out attacks: per-receiver delivery events
    and per-packet timer churn, with recovery machinery idle.
    """
    p = _fanout_params(tier)
    best = None
    for _ in range(p["repeats"]):
        dep = LbrmDeployment(
            DeploymentSpec(
                n_sites=p["n_sites"],
                receivers_per_site=p["receivers_per_site"],
                seed=7,
            )
        )
        t0 = time.perf_counter()
        dep.start()
        dep.advance(0.2)
        for i in range(p["data_packets"]):
            dep.send(f"train-{i}".encode())
            dep.advance(p["spacing"])
        dep.advance(2.0)
        wall = time.perf_counter() - t0
        delivered = dep.network.stats["delivered"]
        received_last = dep.receivers_with(p["data_packets"])  # seqs start at 1
        assert received_last == len(dep.receivers), (
            f"the last packet reached {received_last} of {len(dep.receivers)} receivers"
        )
        run = {
            "wall_s": wall,
            "events": delivered,
            "events_per_sec": delivered / wall,
            "sim_events": dep.sim.processed,
            "peak_queue_depth": dep.sim.peak_pending,
            "tombstones": dep.sim.tombstones,
            "checks": {
                "delivered": delivered,
                "all_received_last": received_last,
            },
        }
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    best["params"] = p
    return best


SCENARIOS = {
    "fig7_nack_reduction": scenario_fig7_nack_reduction,
    "logger_throughput": scenario_logger_throughput,
    "multicast_fanout": scenario_multicast_fanout,
}


# -- scale scenarios ---------------------------------------------------------
#
# The ``--scale`` tier measures the aggregate-receiver machinery
# (repro.scale): populations the exact engine cannot host are modeled
# by one AggregateSiteReceiver per site, so a 10^5–10^6 receiver run
# fits in a few hundred simulated hosts.  The aggregate model's
# conformance to the exact per-receiver path is established
# statistically by tests/scale/.  Alongside events/s each scenario
# records ``peak_rss_kb`` (ru_maxrss) so BENCH files track the memory
# cost of scale.


def _scale_fig7_params(tier: str) -> dict:
    if tier == "scale":
        # 200 sites x 500 modeled receivers = 10^5 receivers.
        return {"n_sites": 200, "receivers_per_site": 500, "n_packets": 40,
                "interval": 0.05, "receiver_loss": 0.002, "shared_loss": 0.002}
    return {"n_sites": 16, "receivers_per_site": 50, "n_packets": 10,
            "interval": 0.05, "receiver_loss": 0.01, "shared_loss": 0.01}


def scenario_scale_fig7_aggregate(tier: str) -> dict:
    """Figure 7's world at 10^5 receivers: burst + steady train, aggregated.

    The same shape as ``fig7_nack_reduction`` — a tail-circuit outage
    costs one site part of the train, site loggers collapse the NACKs,
    the hub unicasts repairs — but each site's receiver population is a
    single aggregate node drawing Binomial loss counts.  Single worker:
    this scenario prices the aggregate model itself.
    """
    p = _scale_fig7_params(tier)
    spec = DeploymentSpec(
        n_sites=p["n_sites"],
        receivers_per_site=p["receivers_per_site"],
        receiver_loss=p["receiver_loss"],
        shared_loss=p["shared_loss"],
        seed=1995,
    )
    scenario = ScaleScenario(
        spec=spec,
        n_packets=p["n_packets"],
        interval=p["interval"],
        warmup=0.2,
        drain=3.0,
        bursts=((0.2 + 2 * p["interval"], 1, 0.1),),
    )
    report = run_sharded(scenario, n_shards=1, inline=True)
    return _scale_run_dict(report, p)


def _scale_fig5_params(tier: str) -> dict:
    if tier == "scale":
        # 500 sites x 2000 modeled receivers = 10^6 receivers, 4 workers.
        return {"n_sites": 500, "receivers_per_site": 2000, "n_packets": 10,
                "interval": 0.5, "receiver_loss": 0.001, "n_shards": 4}
    return {"n_sites": 8, "receivers_per_site": 100, "n_packets": 4,
            "interval": 0.5, "receiver_loss": 0.005, "n_shards": 2}


def scenario_scale_fig5_sharded(tier: str) -> dict:
    """Figure 5's regime at 10^6 receivers, sharded across workers.

    Sparse traffic with long gaps, so the variable-heartbeat schedule
    (the paper's Figure 5 subject) dominates the event stream.  Sites
    are partitioned across ``n_shards`` worker processes with
    conservative time-window barriers — this scenario prices the
    sharded runner end to end (fork, barriers, merge).
    """
    p = _scale_fig5_params(tier)
    spec = DeploymentSpec(
        n_sites=p["n_sites"],
        receivers_per_site=p["receivers_per_site"],
        receiver_loss=p["receiver_loss"],
        seed=5,
    )
    scenario = ScaleScenario(
        spec=spec,
        n_packets=p["n_packets"],
        interval=p["interval"],
        warmup=0.2,
        drain=3.0,
    )
    report = run_sharded(scenario, n_shards=p["n_shards"])
    return _scale_run_dict(report, p)


def _scale_run_dict(report, params: dict) -> dict:
    from repro.scale.shard import protocol_digest

    rss = report.peak_rss_kb
    peak = rss["max"] if isinstance(rss, dict) else rss
    totals = report.totals
    return {
        "wall_s": report.wall_s,
        "events": report.sim_events,
        "events_per_sec": report.sim_events / report.wall_s,
        "sim_events": report.sim_events,
        "peak_queue_depth": 0,  # per-worker gauges are not merged
        "peak_rss_kb": peak,
        "peak_rss_kb_detail": rss,
        "n_shards": report.n_shards,
        "modeled_population": report.population["modeled_population"],
        "hosts": report.population["hosts"],
        "checks": {
            "protocol_digest": protocol_digest(report),
            "sender_seq": report.hub["sender_seq"],
            "wan_nacks": report.hub["primary"]["nacks_received"],
            "modeled_losses": totals.get("modeled_losses", 0),
            "modeled_recoveries": totals.get("modeled_recoveries", 0),
            "modeled_recovery_failures": totals.get("modeled_recovery_failures", 0),
            "outstanding": totals.get("outstanding", 0),
        },
        "params": params,
    }


SCALE_SCENARIOS = {
    "scale_fig7_aggregate": scenario_scale_fig7_aggregate,
    "scale_fig5_sharded": scenario_scale_fig5_sharded,
}


# -- aio scenarios ------------------------------------------------------------
#
# The ``--aio`` tier measures the *live* transport (repro.aio) over real
# loopback sockets: TX bundling + zero-copy RX ring + ``decode_from`` +
# struct codecs.
#
# Two scenarios: ``aio_cluster_throughput`` carries a packet stream
# through a real AioCluster (sender + site logger + primary + N
# receivers) and only counts if every receiver finishes with the
# complete stream — protocol work (logging, ACK tracking, ordering) is a
# large fixed cost, so this is the deployment-visible rate.
# ``aio_transport_blast`` isolates the transport (sender fans the stream
# to N sink nodes over unicast), so per-datagram cost dominates and it
# is the number bundling targets.  Throughput is timing-dependent by
# nature, so ``checks`` holds only deterministic workload facts (counts,
# completeness) — never rates.


def aio_available() -> bool:
    """True when this environment can run the loopback tier at all."""
    from repro.aio.bench import aio_available as _available

    return _available()


def scenario_aio_cluster_throughput(tier: str) -> dict:
    """Full LBRM cluster end to end over loopback sockets."""
    from repro.aio.bench import run_loopback

    return run_loopback(tier=tier, scenario="cluster")


def scenario_aio_transport_blast(tier: str) -> dict:
    """Transport-isolated fan-out: per-datagram costs dominate the rate."""
    from repro.aio.bench import run_loopback

    return run_loopback(tier=tier, scenario="blast")


AIO_SCENARIOS = {
    "aio_cluster_throughput": scenario_aio_cluster_throughput,
    "aio_transport_blast": scenario_aio_transport_blast,
}


# -- hierarchy scenarios -------------------------------------------------------
#
# The ``--hierarchy`` tier measures what DESIGN §11's k-level repair
# trees buy at scale: the *recovery-latency CDF* when a widespread loss
# forces thousands of site loggers to fetch the same packet upstream.
# Flat (depth=2), every repair unicast leaves through the primary
# site's tail circuit — a congested T1 serializes them and the tail of
# the CDF stretches to seconds.  k-level (depth=3), each interior hub
# serves its own subtree through its *own* tail circuit, so repair
# serialization is spread across ~n_sites/fanout links in parallel.


def _hierarchy_cdf_params(tier: str) -> dict:
    if tier == "hierarchy":
        # 10,000 sites, half of them behind a shared outage: the flat
        # primary must push 5,000 repairs down one T1 (~0.5 ms each on
        # the wire), the k-level tree spreads them over ~50 hub tails.
        return {"n_sites": 10000, "receivers_per_site": 1, "fanout": 100,
                "victims": 5000, "tail_bandwidth": 1_536_000.0, "payload": 64,
                "burst": 0.2, "drain": 20.0}
    return {"n_sites": 120, "receivers_per_site": 1, "fanout": 12,
            "victims": 60, "tail_bandwidth": 256_000.0, "payload": 64,
            "burst": 0.2, "drain": 20.0}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _recovery_cdf_run(depth: int, p: dict) -> dict:
    config = LbrmConfig(
        receiver=ReceiverConfig(max_nack_retries=20),
        logger=LoggerConfig(max_upstream_retries=40),
    )
    dep = LbrmDeployment(
        DeploymentSpec(
            n_sites=p["n_sites"],
            receivers_per_site=p["receivers_per_site"],
            depth=depth,
            fanout=p["fanout"],
            tail_bandwidth=p["tail_bandwidth"],
            config=config,
            seed=1995,
        )
    )
    payload = b"x" * p["payload"]
    dep.start()
    dep.advance(0.5)
    dep.send(payload)  # warm-up: everyone synced, loggers hold seq 1
    dep.advance(2.0)
    victims = [f"site{i}" for i in range(1, p["victims"] + 1)]
    dep.burst_sites(victims, p["burst"])
    dep.send(payload)  # the lost update: seq 2 misses every victim site
    dep.advance(p["drain"])
    latencies = sorted(
        event.latency
        for node in dep.receiver_nodes
        for event in node.events_of(RecoveryComplete)
    )
    expected = p["victims"] * p["receivers_per_site"]
    assert dep.receivers_missing() == 0, (
        f"depth={depth}: {dep.receivers_missing()} holes never recovered"
    )
    assert len(latencies) >= expected, (
        f"depth={depth}: only {len(latencies)} recoveries, expected >= {expected}"
    )
    return {
        "depth": depth,
        "recoveries": len(latencies),
        "p50": round(_percentile(latencies, 0.50), 6),
        "p90": round(_percentile(latencies, 0.90), 6),
        "p95": round(_percentile(latencies, 0.95), 6),
        "p99": round(_percentile(latencies, 0.99), 6),
        "max": round(latencies[-1], 6) if latencies else 0.0,
        "delivered": dep.network.stats["delivered"],
        "sim_events": dep.sim.processed,
    }


def scenario_hierarchy_recovery_cdf(tier: str) -> dict:
    """Recovery-latency CDF under a shared outage: flat vs k-level tree.

    The acceptance claim (ISSUE 10): at 10k+ sites the k-level tree
    strictly dominates the flat layout at p50 and p95.  Detection time
    (the heartbeat that reveals the hole) is identical in both runs, so
    the difference is pure repair-path serialization.
    """
    p = _hierarchy_cdf_params(tier)
    t0 = time.perf_counter()
    flat = _recovery_cdf_run(2, p)
    klevel = _recovery_cdf_run(3, p)
    wall = time.perf_counter() - t0
    for q in ("p50", "p95", "p99"):
        assert klevel[q] < flat[q], (
            f"k-level does not dominate flat at {q}: "
            f"klevel={klevel[q]} flat={flat[q]}"
        )
    events = flat["delivered"] + klevel["delivered"]
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall,
        "sim_events": flat["sim_events"] + klevel["sim_events"],
        "peak_queue_depth": 0,
        "cdf": {"flat": flat, "klevel": klevel},
        "speedup_p95": round(flat["p95"] / klevel["p95"], 3),
        "checks": {
            "flat_recoveries": flat["recoveries"],
            "klevel_recoveries": klevel["recoveries"],
            "klevel_dominates_p50": klevel["p50"] < flat["p50"],
            "klevel_dominates_p95": klevel["p95"] < flat["p95"],
        },
        "params": p,
    }


HIERARCHY_SCENARIOS = {
    "hierarchy_recovery_cdf": scenario_hierarchy_recovery_cdf,
}

ALL_SCENARIOS = {**SCENARIOS, **SCALE_SCENARIOS, **AIO_SCENARIOS, **HIERARCHY_SCENARIOS}


# -- running & reporting -----------------------------------------------------


def run_scenario(name: str, tier: str = "quick") -> dict:
    """Run one scenario and return its metrics dict."""
    try:
        fn = ALL_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(ALL_SCENARIOS)}"
        ) from None
    return fn(tier)


def assemble_result(name: str, tier: str, run: dict) -> dict:
    """Wrap one run as a BENCH record, under the ``engines.fast`` key
    every committed baseline was written with (``--check`` reads it)."""
    return {
        "scenario": name,
        "tier": tier,
        "python": sys.version.split()[0],
        "engines": {"fast": run},
    }


def write_result(result: dict, out_dir: Path | str = RESULTS_DIR) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{result['scenario']}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python benchmarks/harness.py``)."""
    from repro.benchrunner import build_bench_parser, run_bench

    args = build_bench_parser().parse_args(argv)
    return run_bench(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
