"""Runner for the ``repro bench`` CLI command.

The scenario definitions live outside the package in
``benchmarks/harness.py`` (they are experiment scripts, like the
figure benchmarks); this module loads that file by path, fans scenario
runs out across processes when asked, and writes the ``BENCH_*.json``
artifacts.  It lives inside the package so worker functions are
importable by name in ``multiprocessing`` children.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

__all__ = [
    "build_bench_parser",
    "run_bench",
    "load_harness",
    "profile_scenario",
    "check_results",
]

_HARNESS_CACHE: dict[str, object] = {}


def default_harness_path() -> pathlib.Path:
    root = pathlib.Path(__file__).resolve().parents[2]
    return root / "benchmarks" / "harness.py"


def load_harness(path: str | pathlib.Path | None = None):
    """Import ``benchmarks/harness.py`` by path (cached per path)."""
    path = str(path or default_harness_path())
    module = _HARNESS_CACHE.get(path)
    if module is None:
        spec = importlib.util.spec_from_file_location("repro_bench_harness", path)
        if spec is None or spec.loader is None:
            raise FileNotFoundError(f"benchmark harness not found: {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _HARNESS_CACHE[path] = module
    return module


def _run_one(harness_path: str, name: str, tier: str) -> dict:
    """Worker entry point: one scenario run in this process."""
    return load_harness(harness_path).run_scenario(name, tier=tier)


def profile_scenario(
    harness_path: str,
    name: str,
    tier: str,
    out_dir: pathlib.Path,
) -> tuple[dict, pathlib.Path, pathlib.Path]:
    """Run one scenario under cProfile.

    Writes two artifacts next to the BENCH results:

    * ``PROFILE_<scenario>.pstats`` — the raw profile, loadable
      with :mod:`pstats` and flamegraph front-ends (snakeviz, flameprof,
      ``gprof2dot``).
    * ``PROFILE_<scenario>.txt`` — the top functions by
      cumulative and by internal time, for reading in a terminal or a CI
      log without extra tooling.

    Returns ``(run_metrics, pstats_path, txt_path)``.  The metrics come
    from the profiled run, so they carry instrumentation overhead — use
    them for relative hotspot weights, never as throughput numbers.
    """
    import cProfile
    import io
    import pstats

    harness = load_harness(harness_path)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run = harness.run_scenario(name, tier=tier)
    finally:
        profiler.disable()
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"PROFILE_{name}"
    pstats_path = out_dir / f"{stem}.pstats"
    profiler.dump_stats(pstats_path)

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs()
    buf.write(f"# {name} [{tier}]\n")
    buf.write(f"# events_per_sec (profiled, overhead-laden): {run['events_per_sec']:,.0f}\n\n")
    buf.write("== top 30 by cumulative time ==\n")
    stats.sort_stats("cumulative").print_stats(30)
    buf.write("\n== top 30 by internal time ==\n")
    stats.sort_stats("tottime").print_stats(30)
    txt_path = out_dir / f"{stem}.txt"
    txt_path.write_text(buf.getvalue())
    return run, pstats_path, txt_path


def check_results(
    results: list[dict],
    baseline_dir: pathlib.Path | str,
    tolerance: float = 0.15,
    expect_complete: bool = True,
) -> list[str]:
    """Compare fresh bench results against committed baselines.

    For every assembled result whose scenario has a
    ``BENCH_<scenario>.json`` in ``baseline_dir``, ``events_per_sec``
    (recorded under ``engines.fast``) must be no more than ``tolerance``
    below the baseline's.  Returns a list of human-readable failures (empty ⇒
    gate passes).  Pure function — no I/O besides reading baselines — so
    the gate itself is unit-testable.

    With ``expect_complete`` (the default for unfiltered runs), a
    baseline file for a scenario the run did not produce is itself a
    failure: a retired or renamed scenario must take its baseline with
    it, otherwise the stale file silently passes the gate forever.
    Pass ``expect_complete=False`` when the run was filtered
    (``--only``), where missing scenarios are expected.
    """
    baseline_dir = pathlib.Path(baseline_dir)
    failures: list[str] = []
    if expect_complete:
        measured = {result["scenario"] for result in results}
        for path in sorted(baseline_dir.glob("BENCH_*.json")):
            stale = path.stem[len("BENCH_"):]
            if stale not in measured:
                failures.append(
                    f"{stale}: baseline {path.name} exists but the run produced no "
                    f"such scenario — delete the stale baseline (or rerun without "
                    f"--only if the scenario still exists)"
                )
    for result in results:
        name = result["scenario"]
        path = baseline_dir / f"BENCH_{name}.json"
        if not path.exists():
            failures.append(
                f"{name}: no baseline at {path} — run `repro bench --{result['tier']} "
                f"--out {baseline_dir}` and commit the result"
            )
            continue
        baseline = json.loads(path.read_text())
        if baseline.get("tier") != result.get("tier"):
            failures.append(
                f"{name}: baseline tier {baseline.get('tier')!r} does not match "
                f"run tier {result.get('tier')!r}; compare like against like"
            )
            continue
        base_run = baseline.get("engines", {}).get("fast")
        new_run = result.get("engines", {}).get("fast")
        if base_run is None or new_run is None:
            failures.append(f"{name}: engines.fast metrics missing from baseline or run")
            continue
        base_eps = base_run["events_per_sec"]
        new_eps = new_run["events_per_sec"]
        floor = base_eps * (1.0 - tolerance)
        if new_eps < floor:
            drop = 100.0 * (1.0 - new_eps / base_eps)
            failures.append(
                f"{name}: events_per_sec regressed {drop:.1f}% "
                f"({new_eps:,.0f} vs baseline {base_eps:,.0f}, floor {floor:,.0f}). "
                f"If the slowdown is intended, refresh the baseline with "
                f"`repro bench --{result['tier']} --out {baseline_dir}` and commit "
                f"the updated {path.name}."
            )
    return failures


def build_bench_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro bench", description="LBRM performance harness"
        )
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--quick", dest="tier", action="store_const", const="quick",
                      help="small populations, one repeat (default)")
    tier.add_argument("--full", dest="tier", action="store_const", const="full",
                      help="paper-scale populations, best of three repeats")
    tier.add_argument("--scale", dest="tier", action="store_const", const="scale",
                      help="aggregate-scale scenarios (10^5-10^6 modeled "
                           "receivers via repro.scale)")
    tier.add_argument("--hierarchy", dest="tier", action="store_const", const="hierarchy",
                      help="k-level repair-tree scenarios (recovery-latency CDF, "
                           "flat vs depth-3 at 10k sites)")
    tier.add_argument("--aio", dest="tier", action="store_const", const="aio",
                      help="live-UDP loopback transport tier (bundled zero-copy "
                           "datagram path over real sockets); writes an "
                           "explicit skipped artifact where sockets are "
                           "unavailable")
    parser.set_defaults(tier="quick")
    parser.add_argument("--only", metavar="NAME[,NAME...]", default=None,
                        help="run only these scenarios (comma separated)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenario measurements across N processes")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory for BENCH_*.json "
                             "(default benchmarks/results/)")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario under cProfile and "
                             "write PROFILE_*.pstats / PROFILE_*.txt artifacts "
                             "(throughput numbers are not recorded: profiled runs "
                             "carry instrumentation overhead)")
    parser.add_argument("--check", metavar="BASELINE_DIR", default=None,
                        help="after measuring, fail if any scenario's "
                             "events_per_sec fell more than the tolerance below "
                             "the committed BENCH_*.json in BASELINE_DIR")
    parser.add_argument("--check-tolerance", type=float, default=0.15, metavar="FRAC",
                        help="allowed fractional events_per_sec drop for --check "
                             "(default 0.15)")
    parser.add_argument("--harness", metavar="PATH", default=None,
                        help=argparse.SUPPRESS)
    return parser


def run_bench(args: argparse.Namespace) -> int:
    harness_path = str(args.harness or default_harness_path())
    try:
        harness = load_harness(harness_path)
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # The scale tier runs the aggregate-model scenarios, the hierarchy
    # tier the 10k-site tree, the aio tier the live-UDP scenarios;
    # quick/full run the exact-engine set.
    if args.tier == "scale":
        scenario_map = getattr(harness, "SCALE_SCENARIOS", {})
        if not scenario_map:
            print("bench: this harness defines no SCALE_SCENARIOS", file=sys.stderr)
            return 1
    elif args.tier == "hierarchy":
        scenario_map = getattr(harness, "HIERARCHY_SCENARIOS", {})
        if not scenario_map:
            print("bench: this harness defines no HIERARCHY_SCENARIOS", file=sys.stderr)
            return 1
    elif args.tier == "aio":
        scenario_map = getattr(harness, "AIO_SCENARIOS", {})
        if not scenario_map:
            print("bench: this harness defines no AIO_SCENARIOS", file=sys.stderr)
            return 1
        available = getattr(harness, "aio_available", None)
        if available is not None and not available():
            # "Cannot measure here" must be a visible artifact, not a
            # silent green: CI uploads the skip record alongside real
            # BENCH files, and the --check gate is not run.
            out_dir = pathlib.Path(args.out) if args.out else harness.RESULTS_DIR
            out_dir.mkdir(parents=True, exist_ok=True)
            skip_path = out_dir / "BENCH_aio_skipped.json"
            skip_path.write_text(json.dumps({
                "status": "skipped",
                "tier": "aio",
                "reason": "UDP sockets unavailable in this environment",
            }, indent=2, sort_keys=True) + "\n")
            print(f"bench --aio: skipped (no UDP sockets); artifact: {skip_path}")
            return 0
    else:
        scenario_map = harness.SCENARIOS
    names = list(scenario_map)
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in scenario_map]
        if unknown:
            print(f"bench: unknown scenario(s) {unknown}; "
                  f"have {sorted(scenario_map)}", file=sys.stderr)
            return 2
    out_dir = pathlib.Path(args.out) if args.out else harness.RESULTS_DIR

    if getattr(args, "profile", False):
        # Profiling replaces measurement: results are not written (they
        # would poison the perf trajectory with instrumented numbers).
        for name in names:
            run, pstats_path, txt_path = profile_scenario(
                harness_path, name, args.tier, out_dir
            )
            print(f"bench --profile {name} [{args.tier}]: "
                  f"{run['events_per_sec']:,.0f} ev/s (instrumented)")
            print(f"  -> {pstats_path}")
            print(f"  -> {txt_path}")
        return 0

    if args.jobs > 1 and len(names) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {
                name: pool.submit(_run_one, harness_path, name, args.tier) for name in names
            }
            runs = {name: future.result() for name, future in futures.items()}
    else:
        runs = {name: _run_one(harness_path, name, args.tier) for name in names}

    results: list[dict] = []
    for name, run in runs.items():
        result = harness.assemble_result(name, args.tier, run)
        results.append(result)
        path = harness.write_result(result, out_dir)
        print(f"bench {name} [{args.tier}]  "
              f"{run['events_per_sec']:,.0f} ev/s ({run['wall_s']:.3f}s)")
        print(f"  -> {path}")

    check_dir = getattr(args, "check", None)
    if not check_dir:
        return 0
    gate_failures = check_results(
        results, check_dir, tolerance=getattr(args, "check_tolerance", 0.15),
        expect_complete=not args.only,
    )
    for failure in gate_failures:
        print(f"bench --check: FAILED {failure}", file=sys.stderr)
    if not gate_failures:
        print(f"bench --check: OK — no scenario regressed more than "
              f"{getattr(args, 'check_tolerance', 0.15):.0%} vs {check_dir}")
    return 1 if gate_failures else 0
