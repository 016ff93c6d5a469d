"""Sharded execution of aggregate-scale deployments.

Partitions receiver sites across worker processes and runs them in
lockstep time windows.  The partitioning leans on LBRM's site locality:

* receiver sites never talk to each other — every protocol exchange is
  site ↔ hub (the source's multicast + the primary's unicast repairs);
* the hub's outbound schedule is receiver-independent (statistical
  acknowledgement off, heartbeats driven by the send timeline), and the
  primary answers each repair requester by unicast, so one site's
  losses never change what another site receives;
* every RNG stream is name-derived (:mod:`repro.scale.deploy`), so a
  site draws identical randomness whichever worker owns it.

Each worker therefore builds the *same hub* plus its own subset of
sites (round-robin by site index) and the merged run is exactly the
unsharded run: per-site outputs are byte-identical for any shard count
(``test_shard.py`` holds us to that).

Synchronization is conservative time windows: the barrier quantum is
the cross-site one-way latency (``ScaleSpec.wan_one_way``) — the
minimum time any event at one site needs to influence another site or
the hub — so no worker can run far enough ahead to observe an effect
before its cause.  With the hub replicated the windows are not needed
for *correctness* (no cross-worker messages exist to miss), but they
keep workers in lockstep, bound skew, and give the parent a natural
heartbeat for crash detection: at every barrier it waits on each
worker's pipe **and** its process sentinel, so a dead worker surfaces
as :class:`ShardWorkerError` instead of a hang.

Counters merge at the end: per-site digests and trace events are
disjoint unions; hub *service* counters (NACKs fielded, repairs sent)
sum across shards — each shard's replicated primary served exactly its
own sites; hub *stream* counters (packets logged, sequence reached) are
identical in every shard and are taken from shard 0.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait as conn_wait

from repro.scale.deploy import AggregateDeployment, ScaleSpec

__all__ = [
    "ScaleScenario",
    "ShardWorkerError",
    "ShardReport",
    "run_sharded",
    "protocol_digest",
    "trace_bytes",
]

# Hub counters served per-site (sum across shards) vs. per-stream
# (identical in every shard; take shard 0's copy).
_HUB_SUMMED = ("nacks_received", "retrans_unicast", "retrans_multicast", "log_misses")


@dataclass(frozen=True)
class ScaleScenario:
    """A declarative scale run: workload timeline + fault schedule.

    The timeline is owned by the scenario (not poked in by the caller)
    so every worker can replay it independently: ``n_packets`` data
    multicasts ``interval`` apart starting at ``warmup``, then ``drain``
    seconds of recovery time.  ``bursts`` schedules tail-circuit
    outages as ``(start, site_index, duration)`` triples.
    """

    spec: ScaleSpec = field(default_factory=ScaleSpec)
    n_packets: int = 50
    interval: float = 0.02
    payload_size: int = 64
    warmup: float = 0.2
    drain: float = 2.0
    bursts: tuple[tuple[float, int, float], ...] = ()
    # Test hooks for the parent's crash-vs-hang handling.  The named
    # shard calls os._exit at its first barrier (mid-window death),
    # dies on receiving ("finish",) instead of reporting (death during
    # the barrier merge), or reports and then refuses to exit
    # (exercises the post-report join timeout).
    debug_crash_shard: int | None = None
    debug_crash_at_finish: int | None = None
    debug_hang_at_exit: int | None = None

    @property
    def end_time(self) -> float:
        return self.warmup + self.n_packets * self.interval + self.drain


class ShardWorkerError(RuntimeError):
    """A worker died or stopped responding; the run was torn down."""


@dataclass
class ShardReport:
    """Merged outcome of a (possibly sharded) scale run."""

    n_shards: int
    seed: int
    population: dict
    sites: dict
    hub: dict
    totals: dict
    trace: list
    sim_events: int
    wall_s: float
    peak_rss_kb: dict


def _shard_sites(n_sites: int, shard: int, n_shards: int) -> tuple[int, ...]:
    """Round-robin site assignment: site i belongs to shard (i-1) % n."""
    return tuple(i for i in range(1, n_sites + 1) if (i - 1) % n_shards == shard)


class _ShardRun:
    """One worker's view of the run: the hub plus its assigned sites.

    Also used directly (``inline=True``) for single-process execution —
    the multiprocessing worker is a thin pipe-protocol wrapper around
    this class, so sharded and inline runs share one code path.
    """

    def __init__(self, scenario: ScaleScenario, shard: int, n_shards: int) -> None:
        self.scenario = scenario
        self.shard = shard
        self.deployment = AggregateDeployment(
            scenario.spec,
            site_indices=_shard_sites(scenario.spec.n_sites, shard, n_shards),
        )
        owned = set(self.deployment.site_indices)
        for start, site_index, duration in scenario.bursts:
            if site_index in owned:
                self.deployment.burst_site(f"site{site_index}", duration, start=start)
        self.deployment.start()
        self._payload = b"x" * scenario.payload_size
        self._next_send = 0

    def advance_to(self, t: float) -> None:
        """Run to absolute time ``t``, firing timeline sends on the way."""
        scenario = self.scenario
        dep = self.deployment
        while self._next_send < scenario.n_packets:
            due = scenario.warmup + self._next_send * scenario.interval
            if due > t:
                break
            dep.advance_to(due)
            dep.send(self._payload)
            self._next_send += 1
        dep.advance_to(t)

    def report(self) -> dict:
        dep = self.deployment
        return {
            "shard": self.shard,
            "sites": dep.site_digests(),
            "hub": dep.hub_stats(),
            "population": dep.network.modeled_stats(),
            "sim_events": dep.sim.processed,
            "outstanding": dep.outstanding(),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def _worker_main(conn: Connection, scenario: ScaleScenario, shard: int, n_shards: int) -> None:
    """Pipe protocol: ("advance", t) → ("at", t); ("finish",) → ("report", …)."""
    import os

    try:
        run = _ShardRun(scenario, shard, n_shards)
        conn.send(("ready", shard))
        while True:
            msg = conn.recv()
            if msg[0] == "advance":
                if scenario.debug_crash_shard == shard:
                    os._exit(3)
                run.advance_to(msg[1])
                conn.send(("at", msg[1]))
            elif msg[0] == "finish":
                if scenario.debug_crash_at_finish == shard:
                    os._exit(3)
                conn.send(("report", run.report()))
                if scenario.debug_hang_at_exit == shard:
                    while True:  # pragma: no branch - killed by the parent
                        time.sleep(60)
                return
            else:  # pragma: no cover - protocol future-proofing
                raise RuntimeError(f"unknown shard message {msg!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    except Exception as exc:  # surface the traceback, then die non-zero
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:  # pragma: no cover - pipe already closed
            pass
        os._exit(1)


def _post(conn: Connection, proc, payload, what: str) -> None:
    """Send one command to a worker, failing cleanly if it already died.

    A worker that exited between barriers closes its pipe end, so the
    parent's next ``send`` raises ``BrokenPipeError`` — surface that as
    :class:`ShardWorkerError` (with the exit code) instead of letting a
    raw OSError escape the run.
    """
    try:
        conn.send(payload)
    except OSError as exc:
        proc.join(timeout=5.0)
        raise ShardWorkerError(
            f"shard worker pipe closed (exit code {proc.exitcode}) during {what}"
        ) from exc


def _await(conn: Connection, proc, timeout: float, what: str):
    """Receive one message from a worker, failing cleanly on death/hang."""
    ready = conn_wait([conn, proc.sentinel], timeout=timeout)
    if conn in ready:
        try:
            msg = conn.recv()
        except EOFError:
            # A dying worker closes its pipe end, which makes the
            # connection "readable" before the process sentinel fires —
            # EOF here IS the death notification, not a protocol error.
            proc.join(timeout=5.0)
            raise ShardWorkerError(
                f"shard worker exited (code {proc.exitcode}) during {what}"
            ) from None
        if msg[0] == "error":
            raise ShardWorkerError(f"shard worker failed during {what}: {msg[1]}")
        return msg
    if proc.sentinel in ready:
        raise ShardWorkerError(
            f"shard worker exited (code {proc.exitcode}) during {what}"
        )
    raise ShardWorkerError(f"shard worker unresponsive for {timeout}s during {what}")


def _merge(scenario: ScaleScenario, reports: list[dict], n_shards: int,
           wall_s: float, parent_rss: int | None) -> ShardReport:
    reports = sorted(reports, key=lambda r: r["shard"])
    sites: dict = {}
    for rep in reports:
        sites.update(rep["sites"])
    # Deterministic site order regardless of which shard reported first.
    sites = {name: sites[name] for name in sorted(sites, key=lambda s: int(s[4:]))}

    hub0 = reports[0]["hub"]
    primary = dict(hub0["primary"])
    for rep in reports[1:]:
        for key in _HUB_SUMMED:
            primary[key] += rep["hub"]["primary"][key]
    hub = {"primary": primary, "sender_seq": hub0["sender_seq"]}

    totals: dict = {}
    for digest in sites.values():
        for key, value in digest["stats"].items():
            totals[key] = totals.get(key, 0) + value
    totals["outstanding"] = sum(rep["outstanding"] for rep in reports)

    trace = sorted(
        (t, name, kind, seq, count)
        for name, digest in sites.items()
        for (t, kind, seq, count) in digest["events"]
    )

    population = dict(reports[0]["population"])
    per_site: dict[str, int] = {}
    modeled = 0
    n_hosts = 0
    for rep in reports:
        pop = rep["population"]
        per_site.update(pop["per_site"])
        modeled += pop["modeled_population"]
        n_hosts += pop["hosts"]
    if n_shards > 1:
        # Each shard replicates the 2-host hub; count it once.
        hub_pop = sum(per_site[s] for s in ("site0",)) if "site0" in per_site else 0
        modeled -= (n_shards - 1) * hub_pop
        n_hosts -= (n_shards - 1) * 2
    population = {
        "hosts": n_hosts,
        "modeled_population": modeled,
        "per_site": {k: per_site[k] for k in sorted(per_site, key=lambda s: int(s[4:]))},
    }

    rss = {"workers": [rep["peak_rss_kb"] for rep in reports]}
    if parent_rss is not None:
        rss["parent"] = parent_rss
    rss["max"] = max(rss["workers"] + ([parent_rss] if parent_rss else []))

    return ShardReport(
        n_shards=n_shards,
        seed=scenario.spec.seed,
        population=population,
        sites=sites,
        hub=hub,
        totals=totals,
        trace=trace,
        sim_events=sum(rep["sim_events"] for rep in reports),
        wall_s=wall_s,
        peak_rss_kb=rss,
    )


def _barriers(scenario: ScaleScenario, window: float | None) -> list[float]:
    if window is None:
        window = scenario.spec.wan_one_way()
    if window <= 0:
        raise ValueError(f"barrier window must be > 0, got {window}")
    end = scenario.end_time
    times = []
    t = window
    while t < end:
        times.append(t)
        t += window
    times.append(end)
    return times


def run_sharded(
    scenario: ScaleScenario,
    n_shards: int = 1,
    *,
    inline: bool = False,
    window: float | None = None,
    timeout: float = 120.0,
) -> ShardReport:
    """Run ``scenario`` across ``n_shards`` workers and merge the results.

    ``inline=True`` runs every shard sequentially in this process (no
    multiprocessing) — the barrier schedule and merge are identical, so
    tests exercise the full pipeline deterministically and cheaply.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > scenario.spec.n_sites:
        raise ValueError(
            f"n_shards ({n_shards}) exceeds site count ({scenario.spec.n_sites})"
        )
    barriers = _barriers(scenario, window)
    t0 = time.perf_counter()

    if inline:
        runs = [_ShardRun(scenario, shard, n_shards) for shard in range(n_shards)]
        for t in barriers:
            for run in runs:
                run.advance_to(t)
        reports = [run.report() for run in runs]
        return _merge(scenario, reports, n_shards, time.perf_counter() - t0, None)

    # "fork" keeps worker startup cheap and inherits sys.path; fall back
    # to the platform default (spawn) where fork is unavailable.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    conns: list[Connection] = []
    procs = []
    try:
        for shard in range(n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, scenario, shard, n_shards),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        for conn, proc in zip(conns, procs):
            _await(conn, proc, timeout, "startup")
        for t in barriers:
            for conn, proc in zip(conns, procs):
                _post(conn, proc, ("advance", t), f"barrier t={t:.3f}")
            for conn, proc in zip(conns, procs):
                _await(conn, proc, timeout, f"barrier t={t:.3f}")
        for conn, proc in zip(conns, procs):
            _post(conn, proc, ("finish",), "final report")
        reports = []
        for conn, proc in zip(conns, procs):
            reports.append(_await(conn, proc, timeout, "final report")[1])
        for proc in procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                # A worker that reported but won't exit would otherwise
                # be silently terminated below — a hang is a failure.
                raise ShardWorkerError(
                    f"shard worker still alive {timeout}s after its final report"
                )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in conns:
            conn.close()

    parent_rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return _merge(scenario, reports, n_shards, time.perf_counter() - t0, parent_rss)


# -- determinism probes -------------------------------------------------------


def trace_bytes(report: ShardReport) -> bytes:
    """Canonical serialization of the merged trace (byte-identity tests)."""
    return json.dumps(report.trace, separators=(",", ":")).encode()


def protocol_digest(report: ShardReport) -> str:
    """Hash of every protocol-visible output — invariant across shard
    counts (wall time, RSS, and per-worker accounting are excluded)."""
    visible = {
        "sites": report.sites,
        "hub": report.hub,
        "totals": report.totals,
        "trace": report.trace,
        "population": report.population,
    }
    blob = json.dumps(visible, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
