"""The ledger's six workloads.

Each workload is a class with the same four steps, so the runner can
time them uniformly:

``__init__(seed, p)``  generate every random input from the seed (loss
                       windows, request streams, payloads) — the program
                       only ever sees generated inputs;
``setup()``            build the deployment / tree / cluster / log;
``run(lap)``           the timed region, cut into *slices*: ``lap()`` is
                       called at every slice boundary, and the work between
                       two boundaries is a function of the seed (the same in
                       every repeat), so the runner can charge each slice
                       its fastest repeat;
``finish()``           read results through public state, apply the
                       correctness gate, release resources.

``__init__`` + ``setup`` together are ``setup_s``.  ``finish`` returns

* ``attempted`` / ``failed`` — operations and the ones that failed;
* ``errors``  — correctness-gate violations (empty = pass);
* ``sim``     — every simulated count and latency: functions of the seed
                that must repeat exactly across repeats and under tracing;
* ``layers``  — program counters by per-layer metric name;
* ``info``    — anything host-dependent worth recording (transport …).

Sizes are for a 2-core box: one unit's timed region is ~2 s, so a run of
30 s repeats it ten times or more; ``SIZES[name]["smoke"]`` is roughly
1/20 of ``["full"]``.  Where a slice boundary falls is part of a workload's
definition: every pass, traced or not, slices alike.  Why each
workload exists is in metrics.WORKLOADS and the README.
"""

from __future__ import annotations

import asyncio
import random
import struct

from repro.aio.cluster import AioCluster
from repro.aio.smoke import multicast_available
from repro.core.actions import SendMulticast, SendUnicast
from repro.core.config import LbrmConfig, LoggerConfig, ReceiverConfig
from repro.core.events import RecoveryComplete
from repro.core.logger import LoggerRole, LogServer
from repro.core import packets
from repro.core.packets import DataPacket, NackPacket, RetransPacket
from repro.scale.deploy import ScaleSpec
from repro.scale.shard import ScaleScenario, protocol_digest, run_sharded
from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
from repro.simnet.loss import BernoulliLoss, BurstLoss

__all__ = ["SIZES", "WORKLOAD_CLASSES", "Skipped", "percentile"]

SIZES = {
    "exact_fanout": {
        "full": {"n_sites": 50, "receivers_per_site": 20, "packets": 600,
                 "spacing": 0.05, "payload": 64, "drain": 2.0},
        "smoke": {"n_sites": 10, "receivers_per_site": 5, "packets": 100,
                  "spacing": 0.05, "payload": 64, "drain": 2.0},
    },
    "exact_lossy": {
        "full": {"n_sites": 50, "receivers_per_site": 20, "packets": 200,
                 "spacing": 0.25, "payload": 64, "drain": 10.0,
                 "packets_per_outage": 25, "outage": 0.1,
                 "tail_loss": 0.02, "receiver_loss": 0.01},
        "smoke": {"n_sites": 10, "receivers_per_site": 5, "packets": 40,
                  "spacing": 0.25, "payload": 64, "drain": 10.0,
                  "packets_per_outage": 10, "outage": 0.1,
                  "tail_loss": 0.02, "receiver_loss": 0.01},
    },
    "tree_outage": {
        "full": {"n_sites": 400, "receivers_per_site": 5, "fanout": 20, "victims": 200,
                 "tail_bandwidth": 1_536_000.0, "payload": 64, "outage": 0.2, "drain": 20.0},
        "smoke": {"n_sites": 120, "receivers_per_site": 1, "fanout": 12, "victims": 60,
                  "tail_bandwidth": 256_000.0, "payload": 64, "outage": 0.2, "drain": 8.0},
    },
    "agg_sharded": {
        "full": {"n_sites": 500, "receivers_per_site": 2000, "packets": 100, "interval": 0.05,
                 "receiver_loss": 0.002, "shared_loss": 0.002, "outage": 0.1,
                 "drain": 3.0, "n_shards": 2},
        "smoke": {"n_sites": 20, "receivers_per_site": 200, "packets": 10, "interval": 0.05,
                  "receiver_loss": 0.002, "shared_loss": 0.002, "outage": 0.1,
                  "drain": 3.0, "n_shards": 2},
    },
    "aio_offered": {
        "full": {"rate": 2000, "seconds": 2.0, "frame": 10, "payload": 64,
                 "receivers": 4, "secondaries": 1, "drain": 5.0},
        "smoke": {"rate": 1000, "seconds": 0.4, "frame": 10, "payload": 64,
                  "receivers": 4, "secondaries": 1, "drain": 5.0},
    },
    "logger_service": {
        "full": {"entries": 20_000, "requests": 60_000, "requesters": 1000,
                 "payload": 128, "nacks_per_write": 5},
        "smoke": {"entries": 1000, "requests": 5000, "requesters": 50,
                  "payload": 128, "nacks_per_write": 5},
    },
}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 6)


# -- exact-engine deployments ---------------------------------------------------


def _deployment_report(dep: LbrmDeployment) -> tuple[dict, dict]:
    """(sim, layers) of a finished exact-engine deployment."""
    latencies = sorted(
        event.latency
        for node in dep.receiver_nodes
        for event in node.events_of(RecoveryComplete)
    )
    net = dep.network.stats
    loggers = [dep.primary, *dep.interior_loggers, *dep.site_loggers]

    def logger_sum(key: str) -> int:
        return sum(logger.stats[key] for logger in loggers)

    def receiver_sum(key: str) -> int:
        return sum(receiver.stats[key] for receiver in dep.receivers)

    served = logger_sum("retrans_unicast") + logger_sum("retrans_multicast")
    misses = logger_sum("log_misses")
    recoveries = receiver_sum("recoveries")
    nacks_sent = receiver_sum("nacks_sent")
    statack = dep.sender.statack
    manager = dep.hierarchy.manager if dep.hierarchy is not None else None
    sim = {
        "delivered": net["delivered"],
        "dropped": net["dropped"],
        "sim_events": dep.sim.processed,
        "app_deliveries": sum(len(node.delivered) for node in dep.receiver_nodes),
        "holes": dep.receivers_missing(),
        "recoveries": len(latencies),
        "primary_nacks": dep.primary.stats["nacks_received"],
    }
    if latencies:
        sim["recovery_p50_ms"] = _ms(percentile(latencies, 0.50))
        sim["recovery_p95_ms"] = _ms(percentile(latencies, 0.95))
        sim["recovery_p99_ms"] = _ms(percentile(latencies, 0.99))
    layers = {
        "simnet.engine.events": dep.sim.processed,
        "simnet.engine.peak_pending": dep.sim.peak_pending,
        "simnet.engine.tombstones": dep.sim.tombstones,
        "simnet.topology.delivered": net["delivered"],
        "simnet.topology.dropped": net["dropped"],
        "simnet.loss.drop_ratio": net["dropped"] / max(1, net["delivered"] + net["dropped"]),
        "core.sender.heartbeats_sent": dep.sender.stats["heartbeats_sent"],
        "core.sender.remulticasts": dep.sender.stats["remulticasts"],
        "core.receiver.nacks_sent": nacks_sent,
        "core.receiver.recoveries": recoveries,
        "core.receiver.nacks_per_recovery": nacks_sent / recoveries if recoveries else 0.0,
        "core.receiver.recovery_p50_ms": sim.get("recovery_p50_ms", 0.0),
        "core.receiver.recovery_p99_ms": sim.get("recovery_p99_ms", 0.0),
        "core.logger.repairs_served": served,
        "core.logger.log_misses": misses,
        "core.logger.upstream_nacks": logger_sum("upstream_nacks"),
        "core.logger.serve_ratio": served / (served + misses) if served + misses else 0.0,
        "core.logger.primary_nacks": sim["primary_nacks"],
        "core.statack.epochs": statack.stats["epochs"] if statack else 0,
        "core.statack.acks_received": statack.stats["acks_received"] if statack else 0,
        "core.hierarchy.reparents": len(manager.moves) if manager else 0,
    }
    return sim, layers


DRAIN_STEP = 0.125  # simulated seconds per slice of a drain


def _drain(dep: LbrmDeployment, seconds: float, lap) -> None:
    """Advance ``seconds`` of simulated time, one slice per ``DRAIN_STEP``."""
    steps = round(seconds / DRAIN_STEP)
    assert steps * DRAIN_STEP == seconds, "drains are whole multiples of DRAIN_STEP"
    for _ in range(steps):
        dep.advance(DRAIN_STEP)
        lap()


class ExactFanout:
    """Dense packet train through the paper's 50 x 20 world, no loss."""

    def __init__(self, seed: int, p: dict) -> None:
        self.rng = rng = random.Random(seed)
        self.p = p
        self.spec_seed = rng.getrandbits(32)
        self.payloads = [rng.randbytes(p["payload"]) for _ in range(p["packets"])]

    def setup(self) -> None:
        p = self.p
        self.dep = LbrmDeployment(DeploymentSpec(
            n_sites=p["n_sites"], receivers_per_site=p["receivers_per_site"], seed=self.spec_seed,
        ))
        self.dep.start()
        self.dep.advance(0.2)

    def run(self, lap) -> None:
        dep, spacing = self.dep, self.p["spacing"]
        for payload in self.payloads:
            dep.send(payload)
            dep.advance(spacing)
            lap()
        _drain(dep, self.p["drain"], lap)

    def finish(self) -> dict:
        dep, p = self.dep, self.p
        sim, layers = _deployment_report(dep)
        n_receivers = len(dep.receivers)
        attempted = n_receivers * p["packets"]
        errors = []
        holding_last = dep.receivers_with(p["packets"])
        if holding_last != n_receivers:
            errors.append(f"only {holding_last}/{n_receivers} receivers hold the last seq")
        if sim["dropped"]:
            errors.append(f"{sim['dropped']} packets dropped on a loss-free network")
        return {
            "attempted": attempted,
            "failed": max(0, attempted - sim["app_deliveries"]),
            "errors": errors, "sim": sim, "layers": layers, "info": {},
        }


class ExactLossy(ExactFanout):
    """The paper's regime: shared-fate tail outages + independent loss."""

    def __init__(self, seed: int, p: dict) -> None:
        super().__init__(seed, p)
        rng = self.rng
        sites = list(range(1, p["n_sites"] + 1))
        rng.shuffle(sites)
        # One outage per block of packets, each on the next site of a
        # shuffled rotation, placed so it swallows one data packet of the
        # block on that site's inbound tail circuit (plus whatever
        # heartbeats and repairs cross it meanwhile).
        self.windows: dict[int, list] = {site: [] for site in sites}
        for block, first in enumerate(range(0, p["packets"], p["packets_per_outage"])):
            hit = first + rng.randrange(min(p["packets_per_outage"], p["packets"] - first))
            start = hit * p["spacing"] - 0.02  # relative to the first send of the train
            self.windows[sites[block % len(sites)]].append((start, start + p["outage"]))
        self.tail_seeds = {site: rng.getrandbits(64) for site in sites}
        self.host_seeds = {
            (site, j): rng.getrandbits(64)
            for site in sites for j in range(p["receivers_per_site"])
        }

    def setup(self) -> None:
        p = self.p
        self.dep = dep = LbrmDeployment(DeploymentSpec(
            n_sites=p["n_sites"], receivers_per_site=p["receivers_per_site"],
            enable_statack=True, seed=self.spec_seed,
        ))
        dep.start()
        dep.advance(0.2)
        # A receiver adopts the first packet it sees as its baseline, so
        # everyone gets one loss-free packet before the loss models go in;
        # otherwise an early loss is a packet the receiver never owed.
        dep.send(bytes(p["payload"]))
        dep.advance(0.5)
        now = dep.sim.now
        for site, windows in self.windows.items():
            dep.network.site(f"site{site}").tail_down.loss = BurstLoss(
                [(now + start, now + end) for start, end in windows],
                base=BernoulliLoss(p["tail_loss"], rng=random.Random(self.tail_seeds[site])),
            )
        for (site, j), seed in self.host_seeds.items():
            dep.network.host(f"site{site}-rx{j}").inbound_loss = BernoulliLoss(
                p["receiver_loss"], rng=random.Random(seed)
            )

    def finish(self) -> dict:
        dep, p = self.dep, self.p
        sim, layers = _deployment_report(dep)
        attempted = len(dep.receivers) * p["packets"]
        delivered = sim["app_deliveries"] - len(dep.receivers)  # less the warm-up packet
        errors = []
        if sim["holes"]:
            errors.append(f"{sim['holes']} holes never recovered")
        if not sim["recoveries"]:
            errors.append("no recoveries: the loss models never bit")
        return {
            "attempted": attempted,
            "failed": max(0, attempted - delivered) + sim["holes"],
            "errors": errors, "sim": sim, "layers": layers, "info": {},
        }


class TreeOutage:
    """Half the sites lose one update behind a depth-3 logger tree."""

    def __init__(self, seed: int, p: dict, depth: int = 3) -> None:
        rng = random.Random(seed)
        self.seed, self.p, self.depth = seed, p, depth
        self.spec_seed = rng.getrandbits(32)
        self.victims = sorted(rng.sample(range(1, p["n_sites"] + 1), p["victims"]))
        self.payload = rng.randbytes(p["payload"])

    def setup(self) -> None:
        p = self.p
        config = LbrmConfig(
            receiver=ReceiverConfig(max_nack_retries=20),
            logger=LoggerConfig(max_upstream_retries=40),
        )
        self.dep = dep = LbrmDeployment(DeploymentSpec(
            n_sites=p["n_sites"], receivers_per_site=p["receivers_per_site"],
            depth=self.depth, fanout=p["fanout"], tail_bandwidth=p["tail_bandwidth"],
            config=config, seed=self.spec_seed,
        ))
        dep.start()
        dep.advance(0.5)
        dep.send(self.payload)  # warm-up: everyone synced, loggers hold seq 1
        dep.advance(2.0)

    def run(self, lap=lambda: None) -> None:
        dep, p = self.dep, self.p
        dep.burst_sites([f"site{i}" for i in self.victims], p["outage"])
        dep.send(self.payload)  # the lost update
        _drain(dep, p["drain"], lap)

    def finish(self) -> dict:
        dep, p = self.dep, self.p
        sim, layers = _deployment_report(dep)
        expected = p["victims"] * p["receivers_per_site"]
        errors = []
        if sim["holes"]:
            errors.append(f"{sim['holes']} holes never recovered")
        if sim["recoveries"] < expected:
            errors.append(f"only {sim['recoveries']} recoveries, expected >= {expected}")
        return {
            "attempted": expected,
            "failed": sim["holes"] + max(0, expected - sim["recoveries"]),
            "errors": errors, "sim": sim, "layers": layers,
            "info": {"tree_nodes": len(dep.hierarchy.manager.tree.nodes) if dep.hierarchy else 0},
        }

    def check_once(self, outcome: dict) -> list:
        """Run the flat (depth-2) twin once, untimed: depth 3 must beat it at p95."""
        flat = TreeOutage(self.seed, self.p, depth=2)
        flat.setup()
        flat.run()
        flat_p95 = flat.finish()["sim"].get("recovery_p95_ms", 0.0)
        outcome["sim"]["flat_recovery_p95_ms"] = flat_p95
        tree_p95 = outcome["sim"].get("recovery_p95_ms", 0.0)
        if not tree_p95 < flat_p95:
            return [f"depth-3 p95 {tree_p95} ms does not beat flat p95 {flat_p95} ms"]
        return []


# -- aggregate model, sharded ------------------------------------------------------


class AggSharded:
    """10^6 modeled receivers; sites split across real worker processes.

    ``run_sharded`` owns worker fork and deployment construction, so they
    cannot be pulled out of the timed call; ``setup`` instead times the
    same call on an *empty timeline* (no packets, no drain: fork, build,
    one barrier, report, merge), and ``wall_s``/``cpu_s`` cover the whole
    real call.  With ``inline`` set (the traced pass: workers cannot be
    traced from outside) the same shards run sequentially in-process.
    """

    def __init__(self, seed: int, p: dict) -> None:
        rng = random.Random(seed)
        self.p = p
        self.inline = bool(p.get("inline"))
        spec = ScaleSpec(
            n_sites=p["n_sites"], receivers_per_site=p["receivers_per_site"],
            receiver_loss=p["receiver_loss"], shared_loss=p["shared_loss"],
            seed=rng.getrandbits(32),
        )
        hit = rng.randrange(1, p["packets"] - 1)
        burst = (0.2 + hit * p["interval"] - 0.01, rng.randrange(1, p["n_sites"] + 1), p["outage"])
        self.scenario = ScaleScenario(
            spec=spec, n_packets=p["packets"], interval=p["interval"], payload_size=64,
            warmup=0.2, drain=p["drain"], bursts=(burst,),
        )
        self.empty = ScaleScenario(spec=spec, n_packets=0, warmup=0.01, drain=0.01)

    def setup(self) -> None:
        run_sharded(self.empty, n_shards=self.p["n_shards"], inline=self.inline)

    def run(self, lap) -> None:
        # One slice: run_sharded is a single call into the program.
        self.report = run_sharded(self.scenario, n_shards=self.p["n_shards"], inline=self.inline)

    def finish(self) -> dict:
        report, p = self.report, self.p
        totals = report.totals
        failures = totals.get("modeled_recovery_failures", 0)
        outstanding = totals.get("outstanding", 0)
        errors = []
        if failures:
            errors.append(f"{failures} modeled recovery failures")
        if outstanding:
            errors.append(f"{outstanding} modeled receivers still missing packets")
        sim = {
            "protocol_digest": protocol_digest(report),
            "sim_events": report.sim_events,
            "modeled_losses": totals.get("modeled_losses", 0),
            "modeled_recoveries": totals.get("modeled_recoveries", 0),
            "primary_nacks": report.hub["primary"]["nacks_received"],
        }
        layers = {
            "simnet.engine.events": report.sim_events,
            "core.logger.primary_nacks": sim["primary_nacks"],
            "scale.aggregate.modeled_losses": sim["modeled_losses"],
            "scale.aggregate.modeled_recoveries": sim["modeled_recoveries"],
        }
        return {
            "attempted": p["n_sites"] * p["receivers_per_site"] * p["packets"],
            "failed": failures + outstanding,
            "errors": errors, "sim": sim, "layers": layers, "info": {},
        }

    def check_once(self, outcome: dict) -> list:
        """The sharded digest must equal the inline single-shard digest."""
        single = protocol_digest(run_sharded(self.scenario, n_shards=1, inline=True))
        if single != outcome["sim"]["protocol_digest"]:
            return [f"digest {outcome['sim']['protocol_digest'][:12]} differs from the "
                    f"single-shard digest {single[:12]}"]
        return []


# -- real UDP, open loop --------------------------------------------------------------


class Skipped(Exception):
    """The workload cannot run in this environment (recorded, never a silent pass)."""


class AioOffered:
    """Open-loop offered load over real UDP sockets on the loopback interface.

    Frames of ``frame`` packets are due every ``frame / rate`` seconds
    whatever the system does; each payload carries its due time, and a
    packet's latency runs from when it was *due*, so a stall is charged
    to every packet it delayed.  How late the generator itself ran is
    reported beside it.  Nothing leaves the host.
    """

    HEADER = struct.Struct("<dI")  # due time (loop clock), packet index
    WARM_UP = 0xFFFFFFFF
    FRAMES_PER_SLICE = 20
    PACED = True  # wall time follows the schedule, not the host's speed

    def __init__(self, seed: int, p: dict) -> None:
        rng = random.Random(seed)
        self.p = p
        self.n_packets = int(p["rate"] * p["seconds"]) // p["frame"] * p["frame"]
        self.filler = [
            rng.randbytes(p["payload"] - self.HEADER.size) for _ in range(self.n_packets)
        ]

    def setup(self) -> None:
        p = self.p
        if not multicast_available():
            # No UDP sockets, or no route for the group AioCluster's data
            # path runs on: nothing of this program to measure.
            raise Skipped("UDP multicast on the loopback interface is unavailable here")
        self.loop = asyncio.new_event_loop()
        self.cluster = AioCluster(
            "ledger/aio", LbrmConfig(), n_receivers=p["receivers"],
            n_secondaries=p["secondaries"], bundling=True,
        )
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        cluster = self.cluster
        await cluster.start()
        # One packet end to end primes sockets, group joins and the
        # receivers' watchdogs before the schedule starts.
        await cluster.publish(self.HEADER.pack(0.0, self.WARM_UP) + bytes(self.p["payload"] - self.HEADER.size))
        for index in range(len(cluster.receiver_nodes)):
            await cluster.deliveries(index, 1, timeout=5.0)

    def run(self, lap) -> None:
        self.loop.run_until_complete(self._offer(lap))

    async def _collect(self, node, latencies: list, indexes: list) -> None:
        queue, clock, unpack = node.delivery_queue, self.loop.time, self.HEADER.unpack_from
        while True:
            delivery = await queue.get()
            now = clock()
            while True:
                due, index = unpack(delivery.payload)
                latencies.append(now - due)
                indexes.append(index)
                if queue.empty():
                    break
                delivery = queue.get_nowait()

    async def _offer(self, lap) -> None:
        p, cluster, clock, pack = self.p, self.cluster, self.loop.time, self.HEADER.pack
        self.latencies = [[] for _ in cluster.receiver_nodes]
        self.indexes = [[] for _ in cluster.receiver_nodes]
        collectors = [
            asyncio.ensure_future(self._collect(node, lat, idx))
            for node, lat, idx in zip(cluster.receiver_nodes, self.latencies, self.indexes)
        ]
        frame, period = p["frame"], p["frame"] / p["rate"]
        self.lateness = []
        start = clock() + 0.01
        try:
            for k in range(self.n_packets // frame):
                if k and k % self.FRAMES_PER_SLICE == 0:
                    lap()  # the same offered load in every slice
                due = start + k * period
                wait = due - clock()
                if wait > 0:
                    await asyncio.sleep(wait)
                self.lateness.append(clock() - due)
                first = k * frame
                await cluster.publish_burst(
                    [pack(due, first + j) + self.filler[first + j] for j in range(frame)]
                )
            deadline = clock() + p["drain"]
            while any(len(idx) < self.n_packets for idx in self.indexes) and clock() < deadline:
                await asyncio.sleep(0.002)
        finally:
            for task in collectors:
                task.cancel()
            await asyncio.gather(*collectors, return_exceptions=True)

    def finish(self) -> dict:
        cluster, n = self.cluster, self.n_packets
        try:
            nodes = cluster.nodes

            def node_sum(key: str) -> int:
                return sum(node.stats[key] for node in nodes)

            expected = list(range(n))
            missing = sum(n - len(set(idx)) for idx in self.indexes)
            errors = []
            for r, idx in enumerate(self.indexes):
                if idx != expected:
                    errors.append(f"receiver {r} delivered {len(idx)}/{n} packets in order")
            for key in ("decode_errors", "socket_errors", "tx_bundle_drops"):
                if node_sum(key):
                    errors.append(f"{key} = {node_sum(key)}")
            flushes = sum(sum(node.bundle_occupancy.values()) for node in nodes)
            coalesced = sum(k * v for node in nodes for k, v in node.bundle_occupancy.items())
            latencies = sorted(x for lat in self.latencies for x in lat)
            layers = {
                "aio.node.tx_datagrams": node_sum("tx_datagrams"),
                "aio.node.rx_datagrams": node_sum("rx_datagrams"),
                "aio.node.mean_bundle_occupancy": coalesced / flushes if flushes else 0.0,
                "aio.node.tx_bundle_drops": node_sum("tx_bundle_drops"),
                "aio.node.decode_errors": node_sum("decode_errors"),
                "aio.node.socket_errors": node_sum("socket_errors"),
                "aio.node.delivery_p50_ms": percentile(latencies, 0.50) * 1e3,
                "aio.node.delivery_p99_ms": percentile(latencies, 0.99) * 1e3,
                "aio.node.generator_late_p99_ms": percentile(sorted(self.lateness), 0.99) * 1e3,
                "core.receiver.nacks_sent": sum(r.stats["nacks_sent"] for r in cluster.receivers),
                "core.receiver.recoveries": sum(r.stats["recoveries"] for r in cluster.receivers),
                "core.sender.heartbeats_sent": cluster.sender.stats["heartbeats_sent"],
                "core.logger.primary_nacks": cluster.primary.stats["nacks_received"],
            }
            return {
                "attempted": n * len(self.indexes),
                "failed": missing,
                "errors": errors,
                # Real sockets: only what was offered is a function of the seed.
                "sim": {"packets_offered": n, "receivers": len(self.indexes)},
                "layers": layers,
                "info": {"transport": "multicast", "interface": "loopback (127.0.0.1)",
                         "delivery_samples": len(latencies)},
            }
        finally:
            self.loop.run_until_complete(cluster.close())
            self.loop.close()


# -- logger request path ------------------------------------------------------------


class LoggerService:
    """One secondary LogServer fielding single-seq NACKs beside live logging.

    Every request and reply makes the full wire trip: encode -> decode ->
    handle -> encode -> decode.
    """

    GROUP = "ledger/log"

    def __init__(self, seed: int, p: dict) -> None:
        rng = random.Random(seed)
        self.p = p
        writes = p["requests"] // p["nacks_per_write"] + 1
        self.payloads = [rng.randbytes(p["payload"]) for _ in range(p["entries"] + writes)]
        tokens = [f"rx{j}" for j in range(p["requesters"])]
        self.requests = [
            (rng.randrange(1, p["entries"] + 1), tokens[rng.randrange(len(tokens))])
            for _ in range(p["requests"])
        ]

    def setup(self) -> None:
        # The codec memos are process-wide; start every repeat from the
        # same (empty) state so hit ratios are a function of the seed.
        packets.clear_codec_caches()
        self.logger = logger = LogServer(
            self.GROUP, addr_token="sec", config=LbrmConfig(), role=LoggerRole.SECONDARY,
            parent="primary", source="source",
        )
        for seq in range(1, self.p["entries"] + 1):
            logger.handle(DataPacket(group=self.GROUP, seq=seq, payload=self.payloads[seq - 1]),
                          "source", 0.0)
        self.codec_before = packets.codec_cache_stats()

    REQUESTS_PER_SLICE = 500

    def run(self, lap) -> None:
        logger, payloads, group = self.logger, self.payloads, self.GROUP
        # Looked up per run, not imported by name: the traced pass swaps them.
        encode, decode = packets.encode, packets.decode
        every = self.p["nacks_per_write"]
        next_seq = self.p["entries"]
        served = wrong = 0
        now = 1.0
        per_slice = self.REQUESTS_PER_SLICE
        for i, (seq, requester) in enumerate(self.requests):
            now += 0.001
            if i % per_slice == 0 and i:
                lap()
            if i % every == 0:
                next_seq += 1
                fresh = DataPacket(group=group, seq=next_seq, payload=payloads[next_seq - 1])
                logger.handle(decode(encode(fresh)), "source", now)
            request = decode(encode(NackPacket(group=group, seqs=(seq,))))
            for action in logger.handle(request, requester, now):
                kind = type(action)
                if kind is SendUnicast or kind is SendMulticast:
                    reply = decode(encode(action.packet))
                    if (type(reply) is RetransPacket and reply.seq == seq
                            and reply.payload == payloads[seq - 1]):
                        served += 1
                    else:
                        wrong += 1
        self.served, self.wrong, self.logged_to = served, wrong, next_seq

    def finish(self) -> dict:
        p, stats = self.p, self.logger.stats
        requested = p["requests"]
        errors = []
        if self.wrong:
            errors.append(f"{self.wrong} replies carried the wrong seq or payload")
        if self.served != requested:
            errors.append(f"served {self.served} of {requested} requests")
        if stats["logged"] != self.logged_to:
            errors.append(f"logged {stats['logged']} packets, expected {self.logged_to}")
        after = packets.codec_cache_stats()

        def hit_ratio(side: str) -> float:
            hits = after[side]["hits"] - self.codec_before[side]["hits"]
            misses = after[side]["misses"] - self.codec_before[side]["misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        repairs = stats["retrans_unicast"] + stats["retrans_multicast"]
        sim = {
            "served": self.served,
            "logged": stats["logged"],
            "retrans_multicast": stats["retrans_multicast"],
            "log_misses": stats["log_misses"],
            "encode_hit_ratio": hit_ratio("encode"),
            "decode_hit_ratio": hit_ratio("decode"),
        }
        layers = {
            "core.logger.repairs_served": repairs,
            "core.logger.log_misses": stats["log_misses"],
            "core.logger.upstream_nacks": stats["upstream_nacks"],
            "core.logger.serve_ratio": repairs / requested,
            "core.packets.encode_hit_ratio": sim["encode_hit_ratio"],
            "core.packets.decode_hit_ratio": sim["decode_hit_ratio"],
        }
        return {
            "attempted": requested,
            "failed": self.wrong + max(0, requested - self.served),
            "errors": errors, "sim": sim, "layers": layers, "info": {},
        }


WORKLOAD_CLASSES = {
    "exact_fanout": ExactFanout,
    "exact_lossy": ExactLossy,
    "tree_outage": TreeOutage,
    "agg_sharded": AggSharded,
    "aio_offered": AioOffered,
    "logger_service": LoggerService,
}
