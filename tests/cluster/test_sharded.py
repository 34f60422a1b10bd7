"""Sharded cluster sim: shard == single-process identity, merge safety."""

from __future__ import annotations

import dataclasses
import re
import time

import pytest

from repro.cluster import run_cluster_experiment
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

    @staticmethod
    def shard_loads(config):
        loads = config.worker_loads()
        return [sum(loads[w] for w in config.worker_indices(index))
                for index in range(config.shards)]

    @pytest.mark.parametrize("invocations", [1000, 1003])
    def test_placement_partitions_and_beats_striping(self, invocations):
        for workers in range(1, 13):
            for shards in range(1, workers + 1):
                for functions in range(1, 11):
                    config = ShardedClusterConfig(
                        invocations=invocations, functions=functions,
                        workers=workers, shards=shards)
                    owned = [config.worker_indices(index)
                             for index in range(shards)]
                    assert sorted(w for ws in owned for w in ws) \
                        == list(range(workers)), config
                    assert all(owned), config  # no idle shard process
                    assert owned == ShardedClusterConfig(
                        **config.to_dict()).placement()
                    loads = config.worker_loads()
                    assert sum(loads) == invocations
                    striped = max(
                        sum(loads[w] for w in range(s, workers, shards))
                        for s in range(shards))
                    assert max(self.shard_loads(config)) <= striped, config

    def test_worker_loads_follow_the_stream(self):
        config = dataclasses.replace(SMALL, invocations=1003)
        loads = [0] * config.workers
        homes = config.function_homes()
        for record in tiled_fib_stream(
                invocations=config.invocations,
                functions=config.functions, seed=config.seed,
                tile_invocations=config.tile_invocations):
            loads[homes[record.function_id]] += 1
        assert loads == config.worker_loads()

    def test_azure_full_largest_shard(self):
        config = ShardedClusterConfig(invocations=1_980_000, workers=8,
                                      shards=4)
        assert max(self.shard_loads(config)) == 495_000

    def test_perfbench_topology_splits_evenly(self):
        config = ShardedClusterConfig(invocations=16_000, workers=8,
                                      shards=2)
        assert self.shard_loads(config) == [8000, 8000]

    def test_worker_indices_rejects_bad_shard(self):
        with pytest.raises(ConfigurationError):
            ShardedClusterConfig(workers=5, shards=2).worker_indices(2)

    def test_round_trips_through_dict(self):
        assert ShardedClusterConfig(**SMALL.to_dict()) == SMALL


class TestShardIdentity:
    """The headline claim: sharded == single-process, exactly."""

    CONFIG = SMALL

    @pytest.fixture(scope="class")
    def config(self, request):
        return request.cls.CONFIG

    @pytest.fixture(scope="class")
    def sharded(self, config):
        return run_sharded_cluster(config, isolate=False)

    @pytest.fixture(scope="class")
    def single(self, config):
        stream = tiled_fib_stream(invocations=config.invocations,
                                  functions=config.functions,
                                  seed=config.seed,
                                  tile_invocations=config.tile_invocations)
        return run_cluster_experiment(
            config.scheduler_factory(), stream,
            fib_family_specs(config.functions),
            workers=config.workers, balancer="hash-partition",
            retain_invocations=False)

    def test_per_worker_counts_identical(self, config, sharded, single):
        assert sharded.per_worker_invocations() \
            == single.per_worker_invocations
        assert sharded.completed == config.invocations

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
        solo = dataclasses.replace(self.CONFIG, invocations=1000, shards=1)
        result = run_sharded_cluster(solo, isolate=False)
        assert result.completed == 1000
        assert sum(result.per_worker_invocations()) == 1000


class TestShardIdentityLPT(TestShardIdentity):
    """The same identity where LPT placement differs from striping."""

    CONFIG = dataclasses.replace(SMALL, workers=8)

    def test_placement_is_not_striped(self):
        assert self.CONFIG.worker_indices(0) \
            != list(range(0, self.CONFIG.workers, self.CONFIG.shards))


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
                                          route_spawns):
        # Neither child sends a result, so the first to finish fails the
        # run; the flood must not deadlock the coordinator before it can
        # say so, and its stderr tail is quoted.
        reason = "exit 1" if code else "exit 0 without a result"
        children = route_spawns(lambda _child: stderr_flood(code))
        with pytest.raises(SimulationError) as failure:
            run_sharded_cluster(SMALL, isolate=True)
        message = str(failure.value)
        assert re.match(rf"shard [01] failed \({reason}\)"
                        r"(; stopped shard [01])?:\n", message), message
        assert message.count("last words") == 1
        assert message.endswith("noise\nlast words")
        assert all(child.returncode is not None
                   for child in children.values())

    def test_malformed_stdout_keeps_draining(self, stdout_garbage,
                                             route_spawns):
        # A non-JSON line fails its shard at once: the coordinator must not
        # stop draining and wait on a child blocked on a full pipe; it
        # stops every child instead and quotes the line, truncated.
        children = route_spawns(lambda _child: stdout_garbage())
        started = time.perf_counter()
        with pytest.raises(SimulationError) as failure:
            run_sharded_cluster(SMALL, isolate=True)
        assert time.perf_counter() - started < 10.0
        message = str(failure.value)
        assert re.match(r"shard [01] failed \(bad stdout line "
                        r"'Traceback\? not json xxx", message), message
        assert "x" * 100 not in message  # the line is truncated
        assert "..." in message
        assert all(child.returncode is not None
                   for child in children.values())

    def test_failed_shard_stops_a_hung_sibling(self, exit_or_sleep,
                                               route_spawns):
        # Shard 0 dies at once while shard 1 would hang for minutes: the
        # coordinator must raise now, name shard 0's failure and report
        # that it stopped shard 1 (killed and reaped).
        children = route_spawns(lambda child: exit_or_sleep(
            "1" if child.name == "shard 0" else "sleep"))
        started = time.perf_counter()
        with pytest.raises(SimulationError) as failure:
            run_sharded_cluster(SMALL, isolate=True)
        assert time.perf_counter() - started < 10.0
        assert str(failure.value) \
            == "shard 0 failed (exit 1); stopped shard 1"
        assert children["shard 1"].returncode == -9


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
