"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``       — package overview, parameter defaults, module map.
``quickstart`` — run the simulated-WAN demo (site loss, 1-NACK repair).
``dis``        — the destroyed-bridge DIS scenario.
``ticker``     — stock quotes with statistical acknowledgement.
``failover``   — primary-log death and replica promotion.
``live``       — the same protocol over real UDP multicast (loopback).
``headline``   — print the paper's headline numbers, recomputed live.
``metrics``    — run a canned loss scenario with observability on and
                 dump the metrics registry (text or JSON).
``bench``      — run the performance harness (each scenario measured
                 once; ``--check`` gates against committed baselines)
                 and write machine-readable ``BENCH_*.json`` results.
``chaos``      — run the randomized fault-injection conformance campaign
                 (seeded schedules, invariant oracle, reproducer seeds).
``hierarchy-chaos`` — the same conformance contract on k-level repair
                 trees: hub crashes, mid-epoch re-parenting mutations,
                 digests that include the tree surgery.
``failover-sweep`` — exhaustively crash the primary at every distinct
                 schedule point and grade each replay (zero-loss proof).
``aio-smoke``  — run a real-UDP cluster (site secondary + replica) under
                 the live invariant oracle and write a JSON report;
                 degrades to a "skipped" report where multicast is
                 unroutable (hosted CI).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    from repro import __version__
    from repro.core.config import LbrmConfig

    cfg = LbrmConfig.paper_defaults()
    print(f"repro {__version__} — Log-Based Receiver-Reliable Multicast (SIGCOMM '95)")
    print()
    print("paper defaults:")
    print(f"  heartbeat: h_min={cfg.heartbeat.h_min}s h_max={cfg.heartbeat.h_max}s "
          f"backoff={cfg.heartbeat.backoff}")
    print(f"  receiver:  MaxIT={cfg.receiver.max_idle_time}s "
          f"(watchdog slack {cfg.receiver.watchdog_slack}x)")
    print(f"  statack:   k={cfg.statack.k_ackers} ackers, alpha={cfg.statack.alpha}, "
          f"epoch={cfg.statack.epoch_length} packets")
    print()
    print("modules: repro.core (protocol) | repro.simnet (WAN simulator) | "
          "repro.aio (real UDP) |")
    print("         repro.baselines (fixed-hb, centralized, SRM, pos-ACK) | "
          "repro.apps | repro.analysis")
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from repro.analysis import overhead_ratio, variable_heartbeat_count
    from repro.apps.dis import scenario_packet_rates

    rates = scenario_packet_rates()
    print("headline numbers, recomputed:")
    print(f"  variable heartbeats per 120s idle interval: "
          f"{variable_heartbeat_count(120.0)} (fixed scheme: 479)")
    print(f"  heartbeat bandwidth reduction at dt=120s:   "
          f"{overhead_ratio(120.0):.1f}x  (paper: 53.3-53.4x)")
    print(f"  STOW-97 scenario total, fixed scheme:       {rates.total_fixed:,.0f} pkt/s "
          "(paper: 500,000)")
    print(f"  terrain heartbeats' share of that:          "
          f"{rates.heartbeat_fraction_fixed:.0%}  (paper: 4/5)")
    print("  NACKs per site-wide loss on the WAN:        "
          "20 centralized -> 1 distributed (run `pytest benchmarks/` for the rest)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.metrics_report import render_json, render_text
    from repro.simnet.deploy import DeploymentSpec, LbrmDeployment
    from repro.simnet.loss import BernoulliLoss

    if args.sites < 1 or args.receivers < 1:
        print("metrics: --sites and --receivers must be >= 1", file=sys.stderr)
        return 2

    with obs.recording() as reg:
        # A small version of the paper's §2.2.2 world: a few sites, one
        # tail circuit suffering a burst outage mid-stream plus one
        # seeded flaky receiver, NACK-driven recovery from site loggers.
        dep = LbrmDeployment(
            DeploymentSpec(n_sites=args.sites, receivers_per_site=args.receivers, seed=args.seed)
        )
        dep.start()
        if args.sites >= 2 and args.receivers >= 1:
            dep.network.host("site2-rx0").inbound_loss = BernoulliLoss(
                0.2, dep.streams.stream("flaky-rx")
            )
        dep.advance(0.5)
        for i in range(5):
            dep.send(f"packet-{i}".encode())
            dep.advance(0.2)
        dep.burst_site("site1", duration=0.5)
        for i in range(5, 10):
            dep.send(f"packet-{i}".encode())
            dep.advance(0.2)
        dep.advance(10.0)
        if args.json:
            print(render_json(reg, trace_tail=args.trace))
        else:
            print(f"scenario: {dep.spec.n_sites} sites x "
                  f"{dep.spec.receivers_per_site} receivers, 10 packets, "
                  f"one 0.5s tail-circuit outage (seed={dep.spec.seed})")
            print()
            print(render_text(reg, trace_tail=args.trace))
    return 0


_DEMOS = {
    "quickstart": "quickstart",
    "dis": "dis_terrain",
    "ticker": "stock_ticker",
    "failover": "failover_demo",
    "live": "asyncio_live",
    "web": "web_invalidation",
}


def _cmd_demo(name: str):
    def run(args: argparse.Namespace) -> int:
        import importlib.util
        import pathlib

        # Examples live outside the package (they are user-facing scripts);
        # load by path so the CLI works from a source checkout.
        root = pathlib.Path(__file__).resolve().parents[2]
        script = root / "examples" / f"{_DEMOS[name]}.py"
        if not script.exists():
            print(f"example script not found: {script}", file=sys.stderr)
            return 1
        spec = importlib.util.spec_from_file_location(f"examples.{name}", script)
        module = importlib.util.module_from_spec(spec)
        assert spec.loader is not None
        spec.loader.exec_module(module)
        if name == "live":
            import asyncio

            asyncio.run(module.main())
        else:
            module.main()
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LBRM — Log-Based Receiver-Reliable Multicast (SIGCOMM '95 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package overview and parameter defaults").set_defaults(
        fn=_cmd_info
    )
    sub.add_parser("headline", help="recompute the paper's headline numbers").set_defaults(
        fn=_cmd_headline
    )
    metrics = sub.add_parser(
        "metrics", help="run a canned loss scenario and dump the metrics registry"
    )
    metrics.add_argument("--json", action="store_true", help="emit JSON instead of text")
    metrics.add_argument("--sites", type=int, default=5, help="receiver sites (default 5)")
    metrics.add_argument(
        "--receivers", type=int, default=4, help="receivers per site (default 4)"
    )
    metrics.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    metrics.add_argument(
        "--trace", type=int, default=20, metavar="N",
        help="include the last N trace events (default 20, 0 to omit)",
    )
    metrics.set_defaults(fn=_cmd_metrics)
    from repro.benchrunner import build_bench_parser, run_bench

    bench = sub.add_parser(
        "bench", help="run the perf harness and write BENCH_*.json results"
    )
    build_bench_parser(bench)
    bench.set_defaults(fn=run_bench)
    from repro.chaos.campaign import CHAOS, build_chaos_parser, run_chaos
    from repro.chaos.hierarchy import HIERARCHY_CHAOS

    for campaign, text in (
        (CHAOS, "run the randomized fault-injection conformance campaign"),
        (HIERARCHY_CHAOS,
         "chaos campaign on k-level repair trees (hub crashes, reparent mutations)"),
    ):
        chaos = sub.add_parser(campaign.name, help=text)
        build_chaos_parser(chaos, campaign)
        chaos.set_defaults(fn=run_chaos)
    from repro.chaos.sweep import build_sweep_parser, run_sweep

    sweep = sub.add_parser(
        "failover-sweep",
        help="exhaustive crash-point failover sweep (zero-loss proof, JSON artifact)",
    )
    build_sweep_parser(sweep)
    sweep.set_defaults(fn=run_sweep)
    from repro.aio.smoke import build_smoke_parser, run_smoke

    smoke = sub.add_parser(
        "aio-smoke",
        help="live-UDP conformance check (ChaosOracle I1-I4) with a JSON artifact",
    )
    build_smoke_parser(smoke)
    smoke.set_defaults(fn=run_smoke)
    for name, script in _DEMOS.items():
        sub.add_parser(name, help=f"run examples/{script}.py").set_defaults(fn=_cmd_demo(name))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
