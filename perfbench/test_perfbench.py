"""Self-tests of the benchmark: layer map, layer sums, percentile helper.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random

import pytest

import layers
import run
import stats
import tiers

run._import_program()


def test_every_module_maps_to_exactly_one_program_layer():
    modules = layers.repro_modules(run.SRC)
    assert "repro.sim.kernel" in modules
    for module in modules:
        layer = layers.layer_of_module(module)  # KeyError when unmapped
        assert layer in layers.LAYERS and layer != "unattributed", module


def test_every_layer_map_entry_names_a_live_module():
    modules = set(layers.repro_modules(run.SRC))
    for pattern in layers.LAYER_MAP:
        if pattern.endswith(".*"):
            package = pattern[:-2]
            assert any(m == package or m.startswith(package + ".")
                       for m in modules), pattern
        else:
            assert pattern in modules, pattern


def test_unknown_module_is_not_silently_attributed():
    with pytest.raises(KeyError):
        layers.layer_of_module("repro.sim.brand_new_module")


def test_traced_run_layer_times_sum_to_profiled_total():
    from repro.baselines import SchedulerBuild, build_scheduler
    from repro.bench import BenchConfig, bench_trace
    from repro.platformsim.experiment import run_experiment
    from repro.workload.generator import fib_family_specs

    trace = bench_trace(BenchConfig(invocations=200, seed=3))
    result, profile, _wall = tiers._profile(lambda: run_experiment(
        build_scheduler("Vanilla", SchedulerBuild(window_ms=200.0)), trace,
        fib_family_specs(8), strict_memory=False))
    assert len(result.invocations) == 200
    times, total = layers.layer_self_times(profile,
                                           layers.LayerResolver(run.SRC))
    assert set(times) == set(layers.LAYERS)
    assert total > 0.0
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
    assert times["cpu"] > 0.0 and times["kernel"] > 0.0
    # Only the lambda above and the profiler's own exit run outside the
    # program's call chains.
    assert times["unattributed"] < 0.01 * total


@pytest.mark.parametrize("n, level", [(500, "p98"), (1000, "p99"),
                                      (10_000, "p99.9"), (40, "p75")])
def test_tail_percentile_keeps_ten_samples_beyond(n, level):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    summary = stats.summarize(values)
    assert summary["n"] == n
    assert summary["tail"] == level
    beyond = sum(1 for v in values if v > summary["tail_value"])
    assert beyond >= stats.MIN_BEYOND


def test_small_sample_has_median_but_no_tail():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail": None, "tail_value": None}
    assert stats.summarize(range(39))["tail"] is None
    assert "no samples" in stats.describe("x", "ms", [])


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 501))
    assert stats.percentile(ordered, 9800) == 490
    assert stats.percentile(ordered, 5000) == 250
    assert stats.level_name(9990) == "p99.9"
    assert stats.level_name(9995) == "p99.95"


def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
