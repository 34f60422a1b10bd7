"""Sharded cluster sim: shard == single-process identity, merge safety."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import run_cluster_experiment, sharded
from repro.cluster.sharded import (
    SHARD_SCHEDULERS,
    ShardResult,
    ShardedClusterConfig,
    merge_shard_results,
    run_shard,
    run_sharded_cluster,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.workload.generator import fib_family_specs, tiled_fib_stream

SMALL = ShardedClusterConfig(invocations=3000, functions=8, seed=13,
                             tile_invocations=1000, workers=4, shards=2)


class TestShardedClusterConfig:
    def test_rejects_more_shards_than_workers(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedClusterConfig(workers=2, shards=3)

    def test_rejects_unknown_scheduler(self):
        # Kraken is deliberately unsupported: its learned parameters have
        # no side channel in the shard protocol.
        assert "Kraken" not in SHARD_SCHEDULERS
        with pytest.raises(ConfigurationError, match="scheduler"):
            ShardedClusterConfig(scheduler="Kraken")

    def test_worker_indices_stripe_and_partition(self):
        config = ShardedClusterConfig(workers=5, shards=2)
        assert config.worker_indices(0) == [0, 2, 4]
        assert config.worker_indices(1) == [1, 3]
        with pytest.raises(ConfigurationError):
            config.worker_indices(2)

    def test_round_trips_through_dict(self):
        assert ShardedClusterConfig(**SMALL.to_dict()) == SMALL


class TestShardIdentity:
    """The headline claim: sharded == single-process, exactly."""

    @pytest.fixture(scope="class")
    def sharded(self):
        return run_sharded_cluster(SMALL, isolate=False)

    @pytest.fixture(scope="class")
    def single(self):
        stream = tiled_fib_stream(invocations=SMALL.invocations,
                                  functions=SMALL.functions,
                                  seed=SMALL.seed,
                                  tile_invocations=SMALL.tile_invocations)
        return run_cluster_experiment(
            SMALL.scheduler_factory(), stream,
            fib_family_specs(SMALL.functions),
            workers=SMALL.workers, balancer="hash-partition",
            retain_invocations=False)

    def test_per_worker_counts_identical(self, sharded, single):
        assert sharded.per_worker_invocations() \
            == single.per_worker_invocations
        assert sharded.completed == SMALL.invocations

    def test_latency_percentiles_identical(self, sharded, single):
        assert single.sink is not None
        for q in (50.0, 95.0, 99.0, 100.0):
            assert sharded.sink.latency_percentile(q) \
                == single.sink.latency_percentile(q)

    def test_completion_time_identical(self, sharded, single):
        assert sharded.completion_ms == single.completion_ms

    def test_cluster_result_view(self, sharded, single):
        view = sharded.to_cluster_result()
        assert view.balancer_name == "hash-partition"
        assert view.invocations == []
        assert view.per_worker_invocations == single.per_worker_invocations
        assert view.per_worker_containers == single.per_worker_containers

    def test_one_shard_equals_unsharded(self):
        solo = dataclasses.replace(SMALL, invocations=1000, shards=1)
        result = run_sharded_cluster(solo, isolate=False)
        assert result.completed == 1000
        assert sum(result.per_worker_invocations()) == 1000


class TestSubprocessCoordinator:
    def test_subprocess_run_matches_in_process(self):
        config = dataclasses.replace(SMALL, invocations=1000,
                                     tile_invocations=500)
        lines = []
        isolated = run_sharded_cluster(config, isolate=True,
                                       log=lines.append)
        inline = run_sharded_cluster(config, isolate=False)
        assert isolated.per_worker_invocations() \
            == inline.per_worker_invocations()
        assert isolated.completion_ms == inline.completion_ms
        for q in (50.0, 99.0):
            assert isolated.sink.latency_percentile(q) \
                == inline.sink.latency_percentile(q)
        # Subprocess shards report their own (small) RSS, not the parent's.
        assert 0 < isolated.max_shard_rss_mb

    @pytest.mark.parametrize("code", [0, 1])
    def test_stderr_flood_fails_with_tail(self, code, stderr_flood,
                                          monkeypatch):
        # Neither child sends a result, so both shards fail; the flood
        # must not deadlock the coordinator before it can say so.
        monkeypatch.setattr(sharded, "_spawn_shard",
                            lambda _config, _index: stderr_flood(code))
        with pytest.raises(SimulationError) as failure:
            run_sharded_cluster(SMALL, isolate=True)
        message = str(failure.value)
        for index in range(SMALL.shards):
            assert f"shard {index} failed (exit {code}):" in message
        assert message.count("last words") == SMALL.shards


class TestMergeShardResults:
    @pytest.fixture(scope="class")
    def parts(self):
        config = dataclasses.replace(SMALL, invocations=600,
                                     tile_invocations=300)
        return config, [run_shard(config, index)
                        for index in range(config.shards)]

    def test_merge_validates_shard_count(self, parts):
        config, results = parts
        with pytest.raises(SimulationError, match="expected 2"):
            merge_shard_results(config, results[:1], wall_clock_s=0.0)

    def test_merge_rejects_duplicate_indices(self, parts):
        config, results = parts
        with pytest.raises(SimulationError, match="permutation"):
            merge_shard_results(config, [results[0], results[0]],
                                wall_clock_s=0.0)

    def test_merge_rejects_submission_leak(self, parts):
        config, results = parts
        tampered = dataclasses.replace(results[1],
                                       submitted=results[1].submitted + 1)
        with pytest.raises(SimulationError, match="overlap or leak"):
            merge_shard_results(config, [results[0], tampered],
                                wall_clock_s=0.0)

    def test_shard_result_payload_round_trip(self, parts):
        _config, results = parts
        clone = ShardResult.from_payload(results[0].to_payload())
        assert clone.per_worker_invocations \
            == results[0].per_worker_invocations
        assert clone.sink.completed == results[0].sink.completed
        assert clone.sink.summary() == results[0].sink.summary()


def comparable_histograms(snapshot):
    """Histogram fields under the exactness contract.

    The float ``sum`` is excluded: ``fsum`` over shard totals and the
    single process's incremental adds can differ in the last ulp.
    """
    return {name: {key: hist[key]
                   for key in ("edges", "counts", "count", "min", "max")}
            for name, hist in snapshot.histograms.items()}


class TestShardTelemetry:
    """Merged shard telemetry == the single-process registry, exactly.

    Gauges are deliberately absent: ``pool.idle`` is last-writer-wins
    per pool instance, the one map without a merge guarantee.
    """

    @pytest.fixture(scope="class")
    def config(self):
        return dataclasses.replace(SMALL, invocations=1000,
                                   tile_invocations=500)

    @pytest.fixture(scope="class")
    def merged(self, config):
        return run_sharded_cluster(config, isolate=False).obs

    @pytest.fixture(scope="class")
    def single(self, config):
        solo = dataclasses.replace(config, shards=1)
        return run_sharded_cluster(solo, isolate=False).obs

    def test_counters_byte_identical(self, merged, single):
        assert merged is not None and single is not None
        assert merged.counters  # the merge must carry real signal
        assert merged.counters == single.counters

    def test_clocks_identical(self, merged, single):
        assert merged.clocks == single.clocks

    def test_histogram_buckets_byte_identical(self, merged, single):
        assert merged.histograms
        assert comparable_histograms(merged) \
            == comparable_histograms(single)

    def test_merge_is_shard_order_independent(self, config):
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        # Round-trip through the subprocess wire format, both orders.
        wire = [ShardResult.from_payload(r.to_payload()) for r in results]
        forward = merge_shard_results(config, wire, wall_clock_s=0.0)
        backward = merge_shard_results(config, list(reversed(wire)),
                                       wall_clock_s=0.0)
        assert forward.obs is not None
        assert forward.obs.to_dict() == backward.obs.to_dict()

    def test_payload_without_obs_stays_loadable(self, config):
        result = run_shard(config, 0)
        payload = result.to_payload()
        payload.pop("obs")  # a pre-telemetry shard's payload
        clone = ShardResult.from_payload(payload)
        assert clone.obs is None
        assert clone.sink.completed == result.sink.completed

    def test_merge_with_missing_obs_yields_none(self, config):
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        legacy = dataclasses.replace(results[1], obs=None)
        merged = merge_shard_results(config, [results[0], legacy],
                                     wall_clock_s=0.0)
        assert merged.obs is None
