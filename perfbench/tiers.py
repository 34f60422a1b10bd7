"""The simulator and cluster workloads, and what every workload shares.

Each tier is driven only through its public entry point, with the
program's defaults: :func:`repro.platformsim.experiment.run_experiment`
here, :func:`repro.cluster.sharded.run_sharded_cluster` (its traced run
calls :func:`repro.cluster.sharded.run_shard` in-process) here, and the
live gateway in :mod:`gateway_tier`.

A workload function returns an :class:`Outcome`: the output checks, the
operation counts, the metrics of the requested mode (end to end when
untraced, per layer when traced) and human-readable notes such as the
output digest.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import layers
import stats

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes elsewhere.
_RSS_TO_MB = (1024.0 * 1024.0) if sys.platform == "darwin" else 1024.0

#: Modules whose import is the tier's import cost, per tier.
IMPORTS = {
    "sim": ("repro.bench", "repro.baselines",
            "repro.platformsim.experiment", "repro.workload.generator"),
    "cluster": ("repro.cluster.sharded",),
    "gateway": ("repro.gateway.harness", "repro.gateway.loadgen"),
}

#: Fresh interpreters timed for the import share of ``setup_s``.
IMPORT_SAMPLES = 3


Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What one benchmark run found."""

    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_TO_MB


def import_seconds(tier: str, src_root: str) -> float:
    """Median import time of *tier*'s modules in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            + "; ".join(f"import {name}" for name in IMPORTS[tier])
            + "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, src_root],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def _digest(rows) -> str:
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(row).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _profile(call: Callable[[], object]):
    """Run *call* under cProfile; returns (result, pstats.Stats, wall s)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    return result, pstats.Stats(profiler), wall


def _layer_metrics(profile: pstats.Stats, src_root: str) -> Metrics:
    times, total = layers.layer_self_times(profile,
                                           layers.LayerResolver(src_root))
    metrics: Metrics = {f"{layer}.self_s": (seconds, "s")
                        for layer, seconds in times.items()}
    metrics["profiled.total_s"] = (total, "s")
    return metrics


def _telemetry_counts(counters: Dict[str, float],
                      histograms: Dict[str, dict]) -> Metrics:
    """Scheduler and platform work counts from the metrics registry."""
    batch = histograms.get("platform.dispatch_batch_size") or {}
    warm = counters.get("pool.warm_hits", 0.0)
    cold = counters.get("pool.cold_misses", 0.0)
    return {
        "sched.dispatches": (counters.get("platform.dispatch_decisions",
                                          0.0), "count"),
        "sched.batch_size_mean": (
            batch.get("sum", 0.0) / batch["count"]
            if batch.get("count") else 0.0, "count"),
        "platform.cold_starts": (cold, "count"),
        "platform.warm_hit_ratio": (
            warm / (warm + cold) if warm + cold else 0.0, "ratio"),
    }


class _SubmitCounter:
    """Counts fair-share engine submissions while installed."""

    def __init__(self) -> None:
        from repro.sim.fair_share import FairShareCpu
        self.cls = FairShareCpu
        self.original = FairShareCpu.submit
        self.count = 0

    def __enter__(self) -> "_SubmitCounter":
        original = self.original

        def submit(engine, *args, **kwargs):
            self.count += 1
            return original(engine, *args, **kwargs)

        self.cls.submit = submit
        return self

    def __exit__(self, *exc) -> None:
        self.cls.submit = self.original


# -- host-speed calibration ------------------------------------------------------

#: Seconds the reference workload takes by definition: a calibrated
#: second is the time this host needs for ``1 / REFERENCE_NOMINAL_S``
#: runs of :func:`reference_workload`.
REFERENCE_NOMINAL_S = 0.02


class _Particle:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.links: List["_Particle"] = []


def reference_workload() -> float:
    """A fixed slice of interpreter work shaped like the simulator's.

    Object allocation, attribute access, method calls, dict and heap
    operations and float arithmetic, with no dependence on the program,
    so a change to the program cannot move it.
    """
    heap: List[Tuple[float, int]] = []
    table: Dict[int, _Particle] = {}
    total = 0.0
    for step in range(16000):
        particle = _Particle(step, (step * 7919 % 1009) / 1009.0)
        table[step % 512] = particle
        other = table.get((step * 31) % 512)
        if other is not None:
            particle.links.append(other)
            total += other.weight * 0.5
        heapq.heappush(heap, (particle.weight + step * 1e-3, step))
        if len(heap) > 256:
            total -= heapq.heappop(heap)[0] * 1e-3
    return total


def reference_seconds() -> float:
    """Wall-clock seconds of one :func:`reference_workload` run, now.

    The collector is off meanwhile: a collection would traverse whatever
    the measured program left on the heap and charge it to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_workload()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Rescales wall-clock seconds to calibrated seconds.

    A shared host can change speed by tens of percent from one minute to
    the next.  Every measured interval is bracketed by runs of the
    reference workload, and its wall clock is scaled by
    ``REFERENCE_NOMINAL_S / mean(reference before, after)``, so a host
    that is slower for the whole interval is charged for neither.
    """

    def __init__(self) -> None:
        reference_workload()  # warm the reference path once
        self._last = reference_seconds()
        self.raw: List[float] = []
        self.references: List[float] = []

    def _bracket(self, call: Callable[[], object]):
        before = self._last
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        self._last = reference_seconds()
        return result, wall, (before + self._last) / 2.0

    def measure(self, call: Callable[[], object]):
        """Run *call*; returns ``(result, calibrated seconds)``."""
        result, wall, reference = self._bracket(call)
        self.raw.append(wall)
        self.references.append(reference)
        return result, wall * REFERENCE_NOMINAL_S / reference

    def factor_during(self, call: Callable[[], object]):
        """Run *call*; returns ``(result, calibration factor meanwhile)``."""
        result, _wall, reference = self._bracket(call)
        return result, REFERENCE_NOMINAL_S / reference

    def run_factor(self) -> float:
        """Calibration factor over every interval measured so far."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)

    def note(self) -> str:
        return (f"calibration: raw repeat wall p50 "
                f"{statistics.median(self.raw):.3f} s, reference p50 "
                f"{statistics.median(self.references) * 1000.0:.1f} ms "
                f"(nominal {REFERENCE_NOMINAL_S * 1000.0:g} ms)")


def calibrated_import_seconds(clock: Calibrated, tier: str,
                              src_root: str) -> float:
    """:func:`import_seconds`, in calibrated seconds."""
    seconds, factor = clock.factor_during(
        lambda: import_seconds(tier, src_root))
    return seconds * factor


# -- simulator ------------------------------------------------------------------


def _digest_note(digests: set) -> str:
    if len(digests) == 1:
        return f"digest {next(iter(digests))}"
    return f"DIGESTS DIFFER across repeats: {sorted(digests)}"


def run_sim(policy: str, invocations: int, tile_invocations: int,
            seed: int, seconds: float, traced: bool,
            src_root: str) -> Outcome:
    """Repeat one simulator cell for *seconds*; median of the repeats.

    An untimed first repeat lets lazy set-up finish.  Every repeat
    re-synthesises its inputs and rebuilds its scheduler (the set-up
    share of ``setup_s``); timing starts at the call into
    ``run_experiment``.
    """
    from repro.baselines import SchedulerBuild, build_scheduler
    from repro.bench import BenchConfig, bench_trace
    from repro.platformsim.experiment import run_experiment
    from repro.workload.generator import fib_family_specs

    config = BenchConfig(invocations=invocations, functions=8, seed=seed,
                         window_ms=200.0, tile_invocations=tile_invocations)
    clock = Calibrated()
    setups: List[float] = []
    walls: List[float] = []
    digests = set()
    failed = 0

    def repeat(mode: str):
        """One repeat; *mode* is "warm-up", "timed" or "profiled"."""
        nonlocal failed
        started = time.perf_counter()
        trace = bench_trace(config)
        specs = fib_family_specs(config.functions)
        scheduler = build_scheduler(policy, SchedulerBuild(window_ms=200.0))
        setups.append(time.perf_counter() - started)
        gc.collect()

        def simulate():
            return run_experiment(scheduler, trace, specs,
                                  workload_label="bench",
                                  strict_memory=False)

        profile = None
        if mode == "profiled":
            result, profile, wall = _profile(simulate)
        elif mode == "timed":
            result, wall = clock.measure(simulate)
            walls.append(wall)
        else:
            result, wall = simulate(), 0.0
        failed += result.failure_count + len(trace) - len(result.invocations)
        digests.add(_digest(
            (inv.invocation_id, inv.arrival_ms, inv.execution_start_ms,
             inv.completed_ms) for inv in result.invocations))
        return result, profile, wall

    repeat("warm-up")
    budget = seconds / 3.0 if traced else seconds
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < budget:
        repeat("timed")
    notes = [f"policy {policy}, {invocations} invocations per repeat in "
             f"bursty minutes of {tile_invocations}, seed {seed}, "
             f"{len(walls)} timed repeats",
             _digest_note(digests),
             stats.describe("calibrated repeat wall", "s", walls),
             clock.note()]
    metrics: Metrics
    if traced:
        with _SubmitCounter() as counter:
            result, profile, traced_wall = repeat("profiled")
        notes.append(f"profiled repeat {traced_wall:.3f} s")
        snapshot = result.metrics_snapshot()
        metrics = _layer_metrics(profile, src_root)
        metrics.update(_telemetry_counts(
            {name: entry["value"] for name, entry in snapshot.items()
             if entry["type"] == "counter"},
            {name: entry for name, entry in snapshot.items()
             if entry["type"] == "histogram"}))
        metrics.update({
            "kernel.events": (result.kernel_events, "count"),
            "kernel.events_per_inv": (result.kernel_events / invocations,
                                      "count"),
            "cpu.submits": (counter.count, "count"),
            "trace_overhead": (
                traced_wall / statistics.median(clock.raw), "ratio"),
        })
    else:
        metrics = {
            "inv_per_s": (invocations / statistics.median(walls), "1/s"),
            "setup_s": (calibrated_import_seconds(clock, "sim", src_root)
                        + statistics.median(setups) * clock.run_factor(),
                        "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    correct = failed == 0 and len(digests) == 1
    return Outcome(correct, invocations * len(setups), failed, metrics,
                   notes)


# -- sharded cluster ------------------------------------------------------------


def run_cluster(invocations: int, seed: int, seconds: float, traced: bool,
                src_root: str) -> Outcome:
    """Repeat one isolated sharded replay for *seconds*.

    An untimed first repeat lets lazy set-up (and the page cache) settle.
    The traced run profiles every shard in-process via ``run_shard`` and
    merges them with ``merge_shard_results``.
    """
    from repro.cluster.sharded import (
        ShardedClusterConfig,
        merge_shard_results,
        run_shard,
        run_sharded_cluster,
    )

    config = ShardedClusterConfig(invocations=invocations, workers=8,
                                  shards=2, scheduler="FaaSBatch",
                                  seed=seed)
    clock = Calibrated()
    walls: List[float] = []
    digests = set()
    rss: List[float] = [peak_rss_mb()]
    failed = 0
    runs = 0

    def check(result) -> None:
        nonlocal failed, runs
        runs += 1
        failed += result.sink.failed + invocations - result.completed
        if sum(result.per_worker_invocations()) != invocations:
            failed += 1
        rss.append(max(s.peak_rss_mb for s in result.shard_results))
        digests.add(_digest([json.dumps(result.sink.to_dict(),
                                        sort_keys=True),
                             result.per_worker_invocations(),
                             result.completion_ms]))

    check(run_sharded_cluster(config))
    budget = seconds / 3.0 if traced else seconds
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < budget:
        gc.collect()
        last, wall = clock.measure(lambda: run_sharded_cluster(config))
        walls.append(wall)
        check(last)
    notes = [f"FaaSBatch, {invocations} invocations, 8 workers on 2 shard "
             f"processes, seed {seed}, {len(walls)} timed repeats",
             f"shard invocations "
             f"{[s.submitted for s in last.shard_results]}",
             stats.describe("calibrated repeat wall", "s", walls),
             clock.note()]
    if traced:
        shard_walls = [s.wall_clock_s for s in last.shard_results]
        with _SubmitCounter() as counter:
            shards, profile, _wall = _profile(
                lambda: [run_shard(config, index)
                         for index in range(config.shards)])
        merge_started = time.perf_counter()
        merged = merge_shard_results(config, shards, 0.0)
        merge_s = time.perf_counter() - merge_started
        check(merged)
        telemetry = merged.obs
        mean_wall = statistics.fmean(shard_walls)
        metrics = _layer_metrics(profile, src_root)
        metrics.update(_telemetry_counts(
            telemetry.counters if telemetry else {},
            telemetry.histograms if telemetry else {}))
        metrics.update({
            "kernel.events": (merged.kernel_events, "count"),
            "kernel.events_per_inv": (merged.kernel_events / invocations,
                                      "count"),
            "cpu.submits": (counter.count, "count"),
            "cluster.shard_wall_s.max": (max(shard_walls), "s"),
            "cluster.shard_wall_s.mean": (mean_wall, "s"),
            "cluster.imbalance": (max(shard_walls) / mean_wall, "ratio"),
            "cluster.merge_s": (merge_s, "s"),
            "trace_overhead": (
                sum(s.wall_clock_s for s in shards) / sum(shard_walls),
                "ratio"),
        })
    else:
        metrics = {
            "inv_per_s": (invocations / statistics.median(walls), "1/s"),
            "setup_s": (calibrated_import_seconds(clock, "cluster",
                                                  src_root), "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
    notes.insert(1, _digest_note(digests))
    correct = failed == 0 and len(digests) == 1
    return Outcome(correct, invocations * runs, failed, metrics, notes)
