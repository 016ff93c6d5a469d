"""Determinism and failure-handling of the sharded scale runner.

The sharding contract: protocol-visible outputs are a pure function of
(scenario, seed) — independent of shard count and of whether shards run
inline or as real processes — and a dead worker surfaces as a clean
:class:`ShardWorkerError`, never a hang.
"""

from __future__ import annotations

import pytest

from repro.core.config import LbrmConfig
from repro.scale.shard import (
    ScaleScenario,
    ShardWorkerError,
    _shard_sites,
    protocol_digest,
    run_sharded,
    trace_bytes,
)
from repro.simnet.deploy import DeploymentSpec


def _scenario(seed: int = 7, n_sites: int = 6, **kwargs) -> ScaleScenario:
    spec = DeploymentSpec(
        n_sites=n_sites,
        receivers_per_site=30,
        receiver_loss=0.02,
        shared_loss=0.01,
        seed=seed,
        config=LbrmConfig(),
    )
    return ScaleScenario(
        spec=spec,
        n_packets=8,
        interval=0.05,
        warmup=0.2,
        drain=2.0,
        bursts=((0.3, 2, 0.08),),
        **kwargs,
    )


class TestShardSites:
    def test_round_robin_partitions_every_site_exactly_once(self):
        for n_shards in (1, 2, 3, 5):
            shards = [_shard_sites(10, s, n_shards) for s in range(n_shards)]
            merged = sorted(i for shard in shards for i in shard)
            assert merged == list(range(1, 11))

    def test_single_shard_owns_everything(self):
        assert _shard_sites(4, 0, 1) == (1, 2, 3, 4)


class TestShardCountInvariance:
    def test_one_vs_four_shards_inline(self):
        one = run_sharded(_scenario(), n_shards=1, inline=True)
        four = run_sharded(_scenario(), n_shards=4, inline=True)
        assert protocol_digest(one) == protocol_digest(four)
        assert one.trace == four.trace
        assert one.totals == four.totals
        assert one.hub == four.hub
        assert one.population == four.population

    def test_multiprocessing_matches_inline(self):
        inline = run_sharded(_scenario(), n_shards=1, inline=True)
        sharded = run_sharded(_scenario(), n_shards=3, timeout=60.0)
        assert protocol_digest(sharded) == protocol_digest(inline)

    def test_different_seeds_differ(self):
        a = run_sharded(_scenario(seed=7), n_shards=1, inline=True)
        b = run_sharded(_scenario(seed=8), n_shards=1, inline=True)
        assert protocol_digest(a) != protocol_digest(b)

    def test_population_accounting_deduplicates_replicated_hub(self):
        report = run_sharded(_scenario(), n_shards=2, inline=True)
        # 6 sites x (logger + aggregate) + source + primary; the logger
        # hosts model one node each, the aggregates 30.
        assert report.population["hosts"] == 6 * 2 + 2
        assert report.population["modeled_population"] == 6 * (30 + 1) + 2


class TestDeterminism:
    def test_same_seed_same_shards_byte_identical_trace(self):
        a = run_sharded(_scenario(), n_shards=2, timeout=60.0)
        b = run_sharded(_scenario(), n_shards=2, timeout=60.0)
        assert trace_bytes(a) == trace_bytes(b)
        assert protocol_digest(a) == protocol_digest(b)

    def test_trace_is_time_ordered(self):
        report = run_sharded(_scenario(), n_shards=2, inline=True)
        times = [event[0] for event in report.trace]
        assert times == sorted(times)
        assert report.trace, "burst + loss rates should generate events"


class TestWorkerFailure:
    def test_crashed_worker_raises_instead_of_hanging(self):
        scenario = _scenario(debug_crash_shard=1)
        with pytest.raises(ShardWorkerError) as excinfo:
            run_sharded(scenario, n_shards=2, timeout=30.0)
        assert "exited" in str(excinfo.value)

    def test_worker_death_at_barrier_merge_raises(self):
        """Death at the final barrier — the worker acks every window but
        dies on ("finish",) instead of reporting — must surface as
        ShardWorkerError, not block siblings on the pipe."""
        scenario = _scenario(debug_crash_at_finish=1)
        with pytest.raises(ShardWorkerError) as excinfo:
            run_sharded(scenario, n_shards=2, timeout=30.0)
        assert "final report" in str(excinfo.value)

    def test_worker_hanging_after_report_raises(self):
        """A worker that reports but never exits is a failure, not
        something for the teardown path to silently terminate."""
        scenario = _scenario(debug_hang_at_exit=0)
        with pytest.raises(ShardWorkerError) as excinfo:
            run_sharded(scenario, n_shards=2, timeout=3.0)
        assert "still alive" in str(excinfo.value)

    def test_send_to_dead_worker_is_shard_error(self):
        """The parent's command send to an already-dead worker converts
        the BrokenPipeError into ShardWorkerError with the exit code."""
        import multiprocessing

        from repro.scale.shard import _post

        class _DeadProc:
            exitcode = 3

            def join(self, timeout=None):
                pass

        parent, child = multiprocessing.Pipe()
        child.close()
        try:
            with pytest.raises(ShardWorkerError) as excinfo:
                _post(parent, _DeadProc(), ("advance", 1.0), "barrier t=1.000")
        finally:
            parent.close()
        assert "exit code 3" in str(excinfo.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sharded(_scenario(), n_shards=0)
        with pytest.raises(ValueError):
            run_sharded(_scenario(n_sites=3), n_shards=4)
        with pytest.raises(ValueError):
            run_sharded(_scenario(), n_shards=1, inline=True, window=0.0)


class TestBursts:
    def test_a_burst_on_a_site_outside_the_spec_is_refused(self):
        """Each shard applies only the bursts on sites it owns, so a burst
        on a site no shard owns would vanish: the scenario refuses it."""
        spec = DeploymentSpec(n_sites=4, receivers_per_site=50)
        for site in (0, 9):
            with pytest.raises(ValueError, match="out of range"):
                ScaleScenario(spec=spec, n_packets=8, bursts=((0.25, site, 0.2),))
        hit = ScaleScenario(spec=spec, n_packets=8, bursts=((0.25, 2, 0.2),))
        report = run_sharded(hit, n_shards=2, inline=True)
        assert report.totals["modeled_losses"] > 0
