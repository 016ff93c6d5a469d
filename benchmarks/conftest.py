"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures, prints the
same rows/series the paper reports, and writes the rendered text to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can cite concrete
artifacts.  Run with::

    pytest benchmarks/ --benchmark-only

Heavy simulations use ``benchmark.pedantic(..., rounds=1)`` — we are
timing one reproducible run, not microbenchmarking the simulator.
"""

from __future__ import annotations

import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Print a rendered experiment report and persist it to results/."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _report


@pytest.fixture
def mean_seconds(benchmark):
    """Mean time of the call ``benchmark`` just measured.

    Under ``--benchmark-disable`` (how ``tools/traffic_census.py`` runs the
    benches) ``benchmark.stats`` is ``None``: time one more call instead.
    """

    def _mean(fn, *args) -> float:
        if benchmark.stats is not None:
            return benchmark.stats["mean"]
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start

    return _mean
