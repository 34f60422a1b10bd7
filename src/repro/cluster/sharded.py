"""Sharded cluster simulation: one subprocess per worker slice.

A single simulator process replaying millions of invocations across many
workers is bounded by one interpreter's heap and one core.  This runner
splits a cluster run into ``shards`` subprocesses, each simulating a
*stripe* of the global worker set (shard ``s`` owns global worker ``w``
iff ``w % shards == s``) against the same streamed trace, and merges the
results.

Why this is exact, not approximate: the sharded mode requires the
``hash-partition`` balancer, whose routing is a pure function of
``(function_id, global worker count)`` — never of load.  Workers on a
shared simulation environment are causally independent (each owns its
machine, CPU, pool and scheduler), so simulating a subset of them with
the other stripes absent yields byte-identical per-worker results.  Each
shard streams its slice of the trace (skipping records routed to workers
it does not own), publishes completions into a
:class:`~repro.common.streaming.StreamingResultSink`, and ships the
serialised sink — mergeable in any order — plus per-worker summaries over
a pipe as JSON.  No per-invocation record ever crosses a process
boundary or outlives its completion callback.

Protocol (modeled on the perf bench's cell subprocesses): the child
(``python -m repro.cluster.sharded``) reads one JSON spec from stdin and
writes JSONL to stdout — ``{"type": "progress", ...}`` heartbeats while
replaying, then a single ``{"type": "result", ...}`` payload.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines import (
    SchedulerBuild,
    build_scheduler,
    registered_policies,
)
from repro.common.errors import ConfigurationError, SimulationError
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
from repro.workload.generator import fib_family_specs, tiled_fib_stream

#: ``ru_maxrss`` unit: bytes on macOS, kilobytes everywhere else.
_RSS_TO_MB = (1024.0 * 1024.0) if sys.platform == "darwin" else 1024.0

#: Completions between progress heartbeats on the child's stdout.
PROGRESS_EVERY = 10_000

#: Schedulers a shard can reconstruct from its JSON spec — every registry
#: policy whose factory is self-contained.  (Kraken is excluded
#: mechanically via ``needs_vanilla_profile``: its parameters are learned
#: from a prior Vanilla run and the shard protocol deliberately has no
#: side channel for them.)
SHARD_SCHEDULERS = tuple(info.label for info in registered_policies()
                         if not info.needs_vanilla_profile)


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MB (honest per shard)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _RSS_TO_MB


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
        return {"invocations": self.invocations,
                "functions": self.functions,
                "seed": self.seed,
                "tile_invocations": self.tile_invocations,
                "workers": self.workers,
                "shards": self.shards,
                "scheduler": self.scheduler,
                "window_ms": self.window_ms,
                "reservoir_capacity": self.reservoir_capacity}

    def worker_indices(self, shard_index: int) -> List[int]:
        """Global worker indices shard *shard_index* owns (striped)."""
        if not 0 <= shard_index < self.shards:
            raise ConfigurationError(
                f"shard_index must be in [0, {self.shards}), "
                f"got {shard_index}")
        return list(range(shard_index, self.workers, self.shards))

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
        payload: Dict[str, object] = {
            "shard_index": self.shard_index,
            "worker_indices": self.worker_indices,
            "per_worker_invocations": self.per_worker_invocations,
            "per_worker_containers": self.per_worker_containers,
            "per_worker_memory_mb": self.per_worker_memory_mb,
            "submitted": self.submitted,
            "completion_ms": self.completion_ms,
            "wall_clock_s": self.wall_clock_s,
            "peak_rss_mb": self.peak_rss_mb,
            "kernel_events": self.kernel_events,
            "sink": self.sink.to_dict()}
        if self.obs is not None:
            payload["obs"] = self.obs.to_dict()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardResult":
        return cls(
            shard_index=int(payload["shard_index"]),  # type: ignore[arg-type]
            worker_indices=list(payload["worker_indices"]),  # type: ignore
            per_worker_invocations=list(payload["per_worker_invocations"]),  # type: ignore[arg-type]
            per_worker_containers=list(payload["per_worker_containers"]),  # type: ignore[arg-type]
            per_worker_memory_mb=list(payload["per_worker_memory_mb"]),  # type: ignore[arg-type]
            submitted=int(payload["submitted"]),  # type: ignore[arg-type]
            completion_ms=float(payload["completion_ms"]),  # type: ignore[arg-type]
            wall_clock_s=float(payload["wall_clock_s"]),  # type: ignore[arg-type]
            peak_rss_mb=float(payload["peak_rss_mb"]),  # type: ignore[arg-type]
            kernel_events=int(payload["kernel_events"]),  # type: ignore[arg-type]
            sink=StreamingResultSink.from_dict(
                payload["sink"]),  # type: ignore[arg-type]
            obs=(TelemetrySnapshot.from_dict(
                payload["obs"])  # type: ignore[arg-type]
                if payload.get("obs") is not None else None))


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
    """Simulate shard *shard_index*'s worker stripe over the full stream.

    Every trace record is routed with the global hash partition; records
    owned by other shards are skipped without being realised.  Runs in
    the calling process — the subprocess entry point and the in-process
    test path both land here.
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
    # stripe publishes into the same registry (as a single-process run
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

    owned_set = set(owned)

    def owned_records():
        for record in stream:
            if stable_hash(record.function_id) % config.workers in owned_set:
                yield record

    def submit_owned(record) -> None:
        submitted[0] += 1
        platforms[stable_hash(record.function_id) % config.workers].submit(
            record)

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
            f"{config.invocations} — worker stripes overlap or leak")
    sink = StreamingResultSink.merged([s.sink for s in ordered])
    obs = (TelemetrySnapshot.merged([s.obs for s in ordered])
           if all(s.obs is not None for s in ordered) else None)
    return ShardedClusterResult(config=config, shard_results=ordered,
                                sink=sink, wall_clock_s=wall_clock_s,
                                obs=obs)


# -- subprocess plumbing ----------------------------------------------------------


def _shard_main() -> int:
    """Child entry (``python -m repro.cluster.sharded``): spec on stdin."""
    spec = json.load(sys.stdin)
    config = ShardedClusterConfig(**spec["config"])
    shard_index = int(spec["shard_index"])

    def emit_progress(count: int) -> None:
        json.dump({"type": "progress", "shard": shard_index,
                   "completed": count, "rss_mb": round(peak_rss_mb(), 1)},
                  sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()

    result = run_shard(config, shard_index, progress=emit_progress)
    json.dump({"type": "result", "payload": result.to_payload()},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


def _spawn_shard(config: ShardedClusterConfig,
                 shard_index: int) -> "subprocess.Popen[str]":
    import repro
    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else src_root + os.pathsep + existing)
    proc = subprocess.Popen([sys.executable, "-m", "repro.cluster.sharded"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    assert proc.stdin is not None
    proc.stdin.write(json.dumps({"config": config.to_dict(),
                                 "shard_index": shard_index}))
    proc.stdin.close()
    return proc


class _ShardReader(threading.Thread):
    """Drains one shard's stdout so no shard ever blocks on a full pipe."""

    def __init__(self, proc: "subprocess.Popen[str]", shard_index: int,
                 on_progress: Callable[[Dict[str, object]], None]) -> None:
        super().__init__(daemon=True)
        self.proc = proc
        self.shard_index = shard_index
        self.on_progress = on_progress
        self.result_payload: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None

    def run(self) -> None:
        assert self.proc.stdout is not None
        try:
            for line in self.proc.stdout:
                line = line.strip()
                if not line:
                    continue
                message = json.loads(line)
                if message.get("type") == "progress":
                    self.on_progress(message)
                elif message.get("type") == "result":
                    self.result_payload = message["payload"]
        except Exception as exc:  # surfaced by the coordinator
            self.error = f"{type(exc).__name__}: {exc}"


def run_sharded_cluster(config: ShardedClusterConfig,
                        isolate: bool = True,
                        log: Optional[Callable[[str], None]] = None,
                        ) -> ShardedClusterResult:
    """Run every shard (subprocesses by default) and merge the results.

    ``isolate=False`` runs the shards sequentially in this process —
    deterministic and convenient for tests, but per-shard RSS is then the
    process-wide high-water mark.
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

    procs = [_spawn_shard(config, index) for index in range(config.shards)]
    readers = [_ShardReader(proc, index, on_progress)
               for index, proc in enumerate(procs)]
    for reader in readers:
        reader.start()
    results: List[ShardResult] = []
    failures: List[str] = []
    for index, (proc, reader) in enumerate(zip(procs, readers)):
        # Drain stderr before waiting (its reader drains stdout), so this
        # shard never blocks on a full pipe; a later shard that floods
        # stderr just waits for its turn.  (A reader thread per stderr
        # pipe would do the same, but each extra thread can bring its own
        # malloc arena and raises the coordinator's peak RSS.)
        assert proc.stderr is not None
        stderr = proc.stderr.read()
        code = proc.wait()
        reader.join()
        if code != 0 or reader.result_payload is None:
            tail = "\n".join(stderr.strip().splitlines()[-12:])
            detail = reader.error or f"exit {code}"
            failures.append(f"shard {index} failed ({detail}):\n{tail}")
            continue
        results.append(ShardResult.from_payload(reader.result_payload))
    if failures:
        raise SimulationError("; ".join(failures))
    return merge_shard_results(
        config, results, round(time.perf_counter() - started, 3))


__all__ = [
    "PROGRESS_EVERY",
    "SHARD_SCHEDULERS",
    "ShardResult",
    "ShardedClusterConfig",
    "ShardedClusterResult",
    "merge_shard_results",
    "peak_rss_mb",
    "run_shard",
    "run_sharded_cluster",
]


if __name__ == "__main__":
    sys.exit(_shard_main())
