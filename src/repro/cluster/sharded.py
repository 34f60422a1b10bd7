"""Sharded cluster simulation: one subprocess per worker slice.

A single simulator process replaying millions of invocations across many
workers is bounded by one interpreter's heap and one core.  This runner
splits a cluster run into ``shards`` subprocesses, each simulating a
disjoint subset of the global worker set against the same streamed
trace, and merges the results.  Workers are placed onto shards by
longest-processing-time (LPT): the trace definition fixes how many
records each worker receives, so the heaviest worker goes first, each to
the least-loaded shard (:meth:`ShardedClusterConfig.worker_indices`).

Why this is exact, not approximate: the sharded mode requires the
``hash-partition`` balancer, whose routing is a pure function of
``(function_id, global worker count)`` — never of load.  Workers on a
shared simulation environment are causally independent (each owns its
machine, CPU, pool and scheduler), so simulating any subset of them with
the others absent yields byte-identical per-worker results.  Each shard
synthesises the full trace, routes every record through a per-function
route table, submits the ones its own workers receive, publishes
completions into a :class:`~repro.common.streaming.StreamingResultSink`,
and ships the serialised sink — mergeable in any order — plus per-worker
summaries over a pipe as JSON.  No per-invocation record ever crosses a
process boundary or outlives its completion callback.

Protocol: every shard is a child of :func:`repro.common.runner.run_children`
(``python -m repro.cluster.sharded``).  It reads one JSON spec from stdin
and writes JSONL to stdout — ``{"type": "progress", ...}`` heartbeats
while replaying, then a single ``{"type": "result", ...}`` payload.  The
first shard that fails stops its siblings.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    SchedulerBuild,
    build_scheduler,
    registered_policies,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.runner import Child, child_main, peak_rss_mb, run_children
from repro.common.streaming import (
    DEFAULT_RESERVOIR_CAPACITY,
    StreamingResultSink,
    TelemetrySnapshot,
)
from repro.common.units import HOUR
from repro.cluster.balancer import stable_hash
from repro.cluster.experiment import ClusterResult, WorkerSize
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.obs import Observability
from repro.platformsim.gateway import ReplayInjector
from repro.platformsim.platform import ServerlessPlatform
from repro.sim.kernel import Environment
from repro.sim.machine import Machine, build_cpu
from repro.workload.generator import (
    FIB_FUNCTION_ID,
    fib_family_specs,
    tiled_fib_stream,
)

#: Completions between progress heartbeats on the child's stdout.
PROGRESS_EVERY = 10_000

#: Schedulers a shard can reconstruct from its JSON spec — every registry
#: policy whose factory is self-contained.  (Kraken is excluded
#: mechanically via ``needs_vanilla_profile``: its parameters are learned
#: from a prior Vanilla run and the shard protocol deliberately has no
#: side channel for them.)
SHARD_SCHEDULERS = tuple(info.label for info in registered_policies()
                         if not info.needs_vanilla_profile)


@dataclass(frozen=True)
class ShardedClusterConfig:
    """One sharded replay scenario (JSON-serialisable both ways)."""

    invocations: int = 20_000
    functions: int = 8
    seed: int = 13
    tile_invocations: int = 4000
    workers: int = 4
    shards: int = 2
    scheduler: str = "FaaSBatch"
    window_ms: float = 200.0
    reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY

    def __post_init__(self) -> None:
        if self.invocations < 1:
            raise ConfigurationError(
                f"invocations must be >= 1, got {self.invocations}")
        if self.functions < 1:
            raise ConfigurationError(
                f"functions must be >= 1, got {self.functions}")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if not 1 <= self.shards <= self.workers:
            raise ConfigurationError(
                f"shards must be in [1, workers={self.workers}], "
                f"got {self.shards}")
        if self.scheduler not in SHARD_SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be one of {SHARD_SCHEDULERS}, "
                f"got {self.scheduler!r}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def function_homes(self) -> Dict[str, int]:
        """Global worker of each function id under the hash partition."""
        ids = (f"{FIB_FUNCTION_ID}-{i}" for i in range(self.functions))
        return {fid: stable_hash(fid) % self.workers for fid in ids}

    def worker_loads(self) -> List[int]:
        """Records each global worker receives, from the stream definition.

        Arrival ``k`` of the tiled stream calls ``fib-(k % functions)``.
        """
        loads = [0] * self.workers
        per_function, extra = divmod(self.invocations, self.functions)
        for i, worker in enumerate(self.function_homes().values()):
            loads[worker] += per_function + (i < extra)
        return loads

    def placement(self) -> List[List[int]]:
        """Every shard's global workers, by longest-processing-time.

        Workers go in decreasing load (ties to the lowest index), each to
        the least-loaded shard (ties to the one owning fewer workers, then
        the lowest index, so no shard is left without a worker).
        """
        loads = self.worker_loads()
        owned: List[List[int]] = [[] for _ in range(self.shards)]
        shard_loads = [0] * self.shards
        for worker in sorted(range(self.workers), key=lambda w: -loads[w]):
            target = min(range(self.shards),
                         key=lambda s: (shard_loads[s], len(owned[s])))
            owned[target].append(worker)
            shard_loads[target] += loads[worker]
        return [sorted(workers) for workers in owned]

    def worker_indices(self, shard_index: int) -> List[int]:
        """Global worker indices shard *shard_index* owns (LPT placement).

        Any partition of the workers is exact (see the module docstring);
        LPT only decides which one, to even out the shards' wall clocks.
        """
        if not 0 <= shard_index < self.shards:
            raise ConfigurationError(
                f"shard_index must be in [0, {self.shards}), "
                f"got {shard_index}")
        return self.placement()[shard_index]

    def scheduler_factory(self) -> Callable[[], object]:
        build = SchedulerBuild(window_ms=self.window_ms)
        return lambda: build_scheduler(self.scheduler, build)


@dataclass
class ShardResult:
    """One shard's summary: mergeable stats, never invocation records."""

    shard_index: int
    worker_indices: List[int]
    per_worker_invocations: List[int]
    per_worker_containers: List[int]
    per_worker_memory_mb: List[float]
    submitted: int
    completion_ms: float
    wall_clock_s: float
    peak_rss_mb: float
    kernel_events: int
    sink: StreamingResultSink
    #: Bounded telemetry delta (counters, gauges, histogram buckets)
    #: shipped over the same JSONL protocol; ``None`` from pre-telemetry
    #: shard payloads.
    obs: Optional[TelemetrySnapshot] = None

    def to_payload(self) -> Dict[str, object]:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["sink"] = self.sink.to_dict()
        payload["obs"] = self.obs.to_dict() if self.obs is not None else None
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardResult":
        obs = payload.get("obs")
        return cls(**{  # type: ignore[arg-type]
            **payload,
            "sink": StreamingResultSink.from_dict(payload["sink"]),  # type: ignore[arg-type]
            "obs": (TelemetrySnapshot.from_dict(obs)  # type: ignore[arg-type]
                    if obs is not None else None)})


@dataclass
class ShardedClusterResult:
    """Merged outcome of every shard of one sharded replay."""

    config: ShardedClusterConfig
    shard_results: List[ShardResult]
    sink: StreamingResultSink
    wall_clock_s: float
    #: Order-independent merge of every shard's telemetry delta; ``None``
    #: when any shard predates the telemetry protocol.
    obs: Optional[TelemetrySnapshot] = None

    @property
    def completed(self) -> int:
        return self.sink.completed

    @property
    def completion_ms(self) -> float:
        return max(s.completion_ms for s in self.shard_results)

    @property
    def max_shard_rss_mb(self) -> float:
        return max(s.peak_rss_mb for s in self.shard_results)

    @property
    def kernel_events(self) -> int:
        return sum(s.kernel_events for s in self.shard_results)

    def per_worker_invocations(self) -> List[int]:
        """Global-worker-order completion counts (merged from all shards)."""
        counts = [0] * self.config.workers
        for shard in self.shard_results:
            for worker, count in zip(shard.worker_indices,
                                     shard.per_worker_invocations):
                counts[worker] = count
        return counts

    def to_cluster_result(self) -> ClusterResult:
        """The merged run as a plain :class:`ClusterResult` (global order)."""
        containers = [0] * self.config.workers
        memory = [0.0] * self.config.workers
        for shard in self.shard_results:
            for worker, value in zip(shard.worker_indices,
                                     shard.per_worker_containers):
                containers[worker] = value
            for worker, value in zip(shard.worker_indices,
                                     shard.per_worker_memory_mb):
                memory[worker] = value
        return ClusterResult(
            balancer_name="hash-partition",
            workers=self.config.workers,
            invocations=[],
            per_worker_invocations=self.per_worker_invocations(),
            per_worker_containers=containers,
            per_worker_memory_mb=memory,
            completion_ms=self.completion_ms,
            sink=self.sink)


def run_shard(config: ShardedClusterConfig, shard_index: int,
              progress: Optional[Callable[[int], None]] = None,
              machine_sizes: Optional[Sequence[WorkerSize]] = None,
              ) -> ShardResult:
    """Simulate shard *shard_index*'s workers over the full stream.

    Every shard synthesises every trace record; a route table built once
    per function id (the global hash partition) decides which ones this
    shard submits.  Runs in the calling process — the subprocess entry
    point and the in-process test path both land here.
    """
    started = time.perf_counter()
    calibration = DEFAULT_CALIBRATION
    owned = config.worker_indices(shard_index)
    stream = tiled_fib_stream(invocations=config.invocations,
                              functions=config.functions,
                              seed=config.seed,
                              tile_invocations=config.tile_invocations)
    specs = fib_family_specs(config.functions)
    factory = config.scheduler_factory()
    sink = StreamingResultSink(reservoir_capacity=config.reservoir_capacity,
                               seed=config.seed + shard_index)
    env = Environment()
    # One shared Observability per shard: every worker platform on this
    # shard publishes into the same registry (as a single-process run
    # would), so shard-final counter/gauge values sum exactly across
    # shards and the coordinator can reconstruct the one-process picture.
    obs = Observability()
    platforms: Dict[int, ServerlessPlatform] = {}
    for global_index in owned:
        size = (machine_sizes[global_index % len(machine_sizes)]
                if machine_sizes else
                WorkerSize(cores=calibration.worker_cores,
                           memory_gb=calibration.worker_memory_gb))
        scheduler = factory()
        cpu = build_cpu(env, scheduler.cpu_discipline, size.cores)
        machine = Machine(env, cores=size.cores, memory_gb=size.memory_gb,
                          cpu=cpu, retain_memory_series=False)
        platform = ServerlessPlatform(env, machine, calibration,
                                      obs=obs, retain_completed=False)
        for spec in specs:
            platform.register_function(spec)
        platform.result_sink = sink
        scheduler.start(platform)
        platforms[global_index] = platform

    submitted = [0]
    done_submitting = [False]
    completed = [0]
    all_done = env.event()

    def maybe_finish() -> None:
        if done_submitting[0] and completed[0] == submitted[0] \
                and not all_done.triggered:
            all_done.succeed(completed[0])

    def on_complete(_invocation) -> None:
        completed[0] += 1
        if progress is not None and completed[0] % PROGRESS_EVERY == 0:
            progress(completed[0])
        maybe_finish()

    for platform in platforms.values():
        platform.completion_listeners.append(on_complete)

    # Function id -> owning platform, or None when another shard owns it.
    route = {fid: platforms.get(worker)
             for fid, worker in config.function_homes().items()}

    def owned_records():
        for record in stream:
            if route[record.function_id] is not None:
                yield record

    def submit_owned(record) -> None:
        submitted[0] += 1
        route[record.function_id].submit(record)

    def finished_submitting() -> None:
        done_submitting[0] = True
        maybe_finish()

    ReplayInjector(env, owned_records(), submit_owned, finished_submitting)

    def waiter():
        yield all_done

    env.run_process(env.process(waiter(),
                                name=f"shard-{shard_index}-waiter"),
                    until=stream.end_ms + 2.0 * HOUR)
    if completed[0] != submitted[0]:
        raise SimulationError(
            f"shard {shard_index} timed out: {completed[0]} of "
            f"{submitted[0]} submitted invocations completed")

    return ShardResult(
        shard_index=shard_index,
        worker_indices=owned,
        per_worker_invocations=[platforms[w].completed_count for w in owned],
        per_worker_containers=[platforms[w].provisioned_containers()
                               for w in owned],
        per_worker_memory_mb=[platforms[w].machine.memory.peak_mb
                              for w in owned],
        submitted=submitted[0],
        completion_ms=env.now,
        wall_clock_s=round(time.perf_counter() - started, 3),
        peak_rss_mb=round(peak_rss_mb(), 1),
        kernel_events=env.events_processed,
        sink=sink,
        obs=obs.telemetry())


def merge_shard_results(config: ShardedClusterConfig,
                        shard_results: Sequence[ShardResult],
                        wall_clock_s: float) -> ShardedClusterResult:
    """Fold per-shard sinks and summaries into the cluster-wide result."""
    if len(shard_results) != config.shards:
        raise SimulationError(
            f"expected {config.shards} shard results, "
            f"got {len(shard_results)}")
    ordered = sorted(shard_results, key=lambda s: s.shard_index)
    if [s.shard_index for s in ordered] != list(range(config.shards)):
        raise SimulationError(
            f"shard indices {[s.shard_index for s in shard_results]} are "
            f"not a permutation of 0..{config.shards - 1}")
    total = sum(s.submitted for s in ordered)
    if total != config.invocations:
        raise SimulationError(
            f"shards submitted {total} invocations in total, trace has "
            f"{config.invocations} — shard placements overlap or leak")
    sink = StreamingResultSink.merged([s.sink for s in ordered])
    obs = (TelemetrySnapshot.merged([s.obs for s in ordered])
           if all(s.obs is not None for s in ordered) else None)
    return ShardedClusterResult(config=config, shard_results=ordered,
                                sink=sink, wall_clock_s=wall_clock_s,
                                obs=obs)


# -- subprocess plumbing ----------------------------------------------------------


def _shard_main(spec: Dict[str, object], progress) -> Dict[str, object]:
    """Child body (``python -m repro.cluster.sharded``): one shard."""
    config = ShardedClusterConfig(**spec["config"])  # type: ignore[arg-type]
    shard_index = int(spec["shard_index"])  # type: ignore[arg-type]

    def emit_progress(count: int) -> None:
        progress({"shard": shard_index, "completed": count,
                  "rss_mb": round(peak_rss_mb(), 1)})

    return run_shard(config, shard_index, progress=emit_progress).to_payload()


def run_sharded_cluster(config: ShardedClusterConfig,
                        isolate: bool = True,
                        log: Optional[Callable[[str], None]] = None,
                        ) -> ShardedClusterResult:
    """Run every shard (subprocesses by default) and merge the results.

    ``isolate=False`` runs the shards sequentially in this process —
    deterministic and convenient for tests, but per-shard RSS is then the
    process-wide high-water mark.  A failing shard subprocess stops the
    others and raises :class:`~repro.common.runner.ChildFailure` (a
    :class:`SimulationError`).
    """
    emit = log if log is not None else (lambda _msg: None)
    started = time.perf_counter()
    if not isolate:
        results = [run_shard(config, index)
                   for index in range(config.shards)]
        return merge_shard_results(
            config, results, round(time.perf_counter() - started, 3))

    def on_progress(message: Dict[str, object]) -> None:
        emit(f"shard {message['shard']}: {message['completed']} done, "
             f"rss {message['rss_mb']} MB")

    payloads = run_children(
        [Child(f"shard {index}", "repro.cluster.sharded",
               {"config": config.to_dict(), "shard_index": index})
         for index in range(config.shards)],
        on_progress=on_progress)
    return merge_shard_results(
        config, [ShardResult.from_payload(payload) for payload in payloads],
        round(time.perf_counter() - started, 3))


__all__ = [
    "PROGRESS_EVERY",
    "SHARD_SCHEDULERS",
    "ShardResult",
    "ShardedClusterConfig",
    "ShardedClusterResult",
    "merge_shard_results",
    "run_shard",
    "run_sharded_cluster",
]


if __name__ == "__main__":
    sys.exit(child_main(_shard_main))
