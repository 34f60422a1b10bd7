"""The live-gateway workloads: open-loop load on ``Gateway.invoke``.

Each cell builds a fresh FaaSBatch stack with
:func:`repro.gateway.harness.build_stack` (the ``repro loadgen``
defaults), warms it, and serves a seeded Poisson schedule from one
coroutine on the gateway's own loop.  Every cell runs in a fresh
interpreter (this file is also the cell's entry point), and a run
reports medians over its cells.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import stats
from tiers import (
    REFERENCE_NOMINAL_S,
    Calibrated,
    Metrics,
    Outcome,
    calibrated_import_seconds,
    peak_rss_mb,
    reference_seconds,
)

#: Latency limit on p99, in ms: ``slo.max_rps`` and the generator-bound
#: flag use it.
LATENCY_LIMIT_MS = 100.0

#: Rate ladder searched for ``slo.max_rps``, in requests per second.
RATE_LADDER = (2000, 4000, 6000, 8000, 10000, 12000, 15000, 20000)

#: Seconds of warm-up load (its own seeded schedule) each stack serves
#: before its measured schedule, so containers and clients exist.
GATEWAY_WARMUP_S = 0.5

#: Seconds of measured load per cell, at least; a cell also lasts long
#: enough for :data:`GATEWAY_CELL_REQUESTS` requests.  Each cell is a
#: fresh process; a run serves cells until its time is up and reports
#: medians over them.
GATEWAY_CELL_S = 2.0
GATEWAY_CELL_REQUESTS = 4000

#: Seconds of load per rung of the rate ladder.
RUNG_S = 1.0


def _gateway_spec(rate: float, seed: int, duration: float):
    """The ``repro loadgen`` defaults: FaaSBatch policy over inproc."""
    from repro.gateway import AdmissionConfig, CellSpec, LoadgenConfig

    load = LoadgenConfig(rps=rate, duration_seconds=duration, seed=seed,
                         mix={"io": 0.1, "echo": 0.9})
    return CellSpec(label=f"r{rate:g}", policy="faasbatch", load=load,
                    transport="inproc", window_seconds=0.010,
                    deadline_seconds=10.0,
                    admission=AdmissionConfig(max_queue_depth=2048,
                                              max_inflight=8192,
                                              shed_policy="newest"),
                    request_timeout_seconds=None)


def _answer_ok(arrival, body: dict) -> bool:
    """Echo returns its payload; io returns the key it stored."""
    if arrival.function == "echo":
        return body.get("result") == arrival.payload
    if arrival.function == "io":
        return body.get("result") == {"stored": arrival.payload["key"]}
    return "result" in body


@dataclass
class _Shot:
    """One scheduled request and its single terminal outcome."""

    payload: object
    intended: float
    fired: float
    ended: float
    status: int
    answer_ok: bool

    @property
    def outcome(self) -> str:
        if self.status == 200:
            return "completed"
        if self.status == 429:
            return "shed"
        if self.status == 504:
            return "timed_out"
        return "errored"

    def latency_ms(self, deadline_ms: float) -> float:
        """From the intended send time; a failure counts at the deadline."""
        if self.status != 200:
            return deadline_ms
        return (self.ended - self.intended) * 1000.0


async def _drive(gateway, schedule) -> Tuple[float, List[_Shot]]:
    """Open loop: fire each arrival at its offset, whatever the server does.

    One coroutine paces the whole schedule on the gateway's own loop; each
    request is stamped with its intended and actual send time.
    """
    loop = gateway.loop
    start = loop.time() + 0.005
    shots: List[Optional[_Shot]] = [None] * len(schedule)

    async def fire(index: int, arrival, intended: float,
                   fired: float) -> None:
        response = await gateway.invoke(arrival.function, arrival.payload)
        shots[index] = _Shot(arrival.payload, intended, fired, loop.time(),
                             response.status,
                             response.status == 200
                             and _answer_ok(arrival, response.body))

    tasks = []
    for index, arrival in enumerate(schedule):
        intended = start + arrival.offset_seconds
        delay = intended - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(
            fire(index, arrival, intended, loop.time())))
    await asyncio.gather(*tasks)
    return start, shots  # type: ignore[return-value]


class _StageRecorder:
    """Wrappers around the gateway's public calls that stamp each stage.

    * window wait: ``FunctionBatcher.enqueue`` -> ``flush``;
    * hop: ``LocalPlatform.submit_group`` -> the container's batch start
      (``LocalInvocation.submitted_at`` -> ``dispatched_at``);
    * handler: ``started_at`` -> ``completed_at`` of each invocation;
    * drain: handler end -> ``Gateway.invoke`` returns;
    * admission: the highest in-flight count after ``admit``;
    * collector: every full (generation 2) garbage collection's pause.
    """

    def __init__(self) -> None:
        from repro.gateway.admission import AdmissionController
        from repro.gateway.batching import FunctionBatcher
        from repro.local.runtime import LocalPlatform
        self.targets = [(FunctionBatcher, "flush", self._flush),
                        (LocalPlatform, "submit_group", self._submit_group),
                        (AdmissionController, "admit", self._admit)]
        self.originals = {}
        self.window_wait_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.invocation_of: Dict[int, object] = {}
        self.inflight_max = 0
        self.gc_pauses_ms: List[float] = []
        self._gc_started = 0.0

    def _flush(self, original):
        def flush(batcher):
            now = batcher.loop.time()
            if batcher.pending:
                self.batch_sizes.append(len(batcher.pending))
            for request in batcher.pending:
                self.window_wait_ms.append(
                    (now - request.enqueued_at) * 1000.0)
            return original(batcher)
        return flush

    def _submit_group(self, original):
        def submit_group(platform, name, payloads):
            group = original(platform, name, payloads)
            for payload, invocation in zip(payloads, group):
                self.invocation_of[id(payload)] = invocation
            return group
        return submit_group

    def _admit(self, original):
        def admit(controller):
            original(controller)
            self.inflight_max = max(self.inflight_max, controller.inflight)
        return admit

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses_ms.append(
                (time.perf_counter() - self._gc_started) * 1000.0)

    def __enter__(self) -> "_StageRecorder":
        for cls, name, wrap in self.targets:
            self.originals[(cls, name)] = getattr(cls, name)
            setattr(cls, name, wrap(getattr(cls, name)))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for (cls, name), original in self.originals.items():
            setattr(cls, name, original)

    def stage_samples(self, shots: List[_Shot]) -> Dict[str, List[float]]:
        hop, handler, drain = [], [], []
        for shot in shots:
            invocation = self.invocation_of.get(id(shot.payload))
            if invocation is None or invocation.completed_at is None:
                continue
            hop.append((invocation.dispatched_at
                        - invocation.submitted_at) * 1000.0)
            handler.append((invocation.completed_at
                            - invocation.started_at) * 1000.0)
            drain.append((shot.ended - invocation.completed_at) * 1000.0)
        return {"window.wait_ms": self.window_wait_ms, "hop.ms": hop,
                "handler.ms": handler, "drain.ms": drain}


@dataclass
class _CellRun:
    """One measured schedule served by one fresh, warmed stack."""

    start: float
    shots: List[_Shot]
    build_s: float
    cpu_s: float
    shed: int
    reuse: float
    deadline_ms: float

    def latencies_ms(self) -> List[float]:
        return sorted(s.latency_ms(self.deadline_ms) for s in self.shots)

    def failed(self) -> int:
        return sum(s.status != 200 for s in self.shots)

    def drain_ms(self, last_offset_s: float) -> float:
        """Last response after the last intended send (backlog left)."""
        return (max(s.ended for s in self.shots)
                - (self.start + last_offset_s)) * 1000.0


async def _serve_cell(spec, warmup, schedule,
                      recorder: Optional[_StageRecorder] = None) -> _CellRun:
    from repro.gateway.harness import build_stack

    started = time.perf_counter()
    platform, gateway = build_stack(spec)
    build_s = time.perf_counter() - started
    try:
        await _drive(gateway, warmup)
        cpu_started = time.process_time()
        if recorder is None:
            start, shots = await _drive(gateway, schedule)
        else:
            with recorder:
                start, shots = await _drive(gateway, schedule)
        cpu_s = time.process_time() - cpu_started
        shed = gateway.admission.total_shed
        reuse = platform.multiplexer_reuse_ratio()
    finally:
        gateway.close()
        await asyncio.sleep(0)
        await asyncio.get_running_loop().run_in_executor(
            None, platform.shutdown)
    return _CellRun(start, shots, build_s, cpu_s, shed, reuse,
                    spec.deadline_seconds * 1000.0)


def _cell_summary(rate: float, seed: int, cell_s: float, traced: bool,
                  ladder_rung: bool) -> dict:
    """Serve one seeded cell on a fresh stack; summarise it as JSON data.

    Runs inside a fresh interpreter (see :func:`_cell_in_process`).
    """
    from repro.gateway.loadgen import build_schedule

    spec = _gateway_spec(rate, seed, cell_s)
    reference_s = reference_seconds()
    synth_started = time.perf_counter()
    schedule = build_schedule(spec.load)
    warmup = build_schedule(_gateway_spec(rate, seed + 1,
                                          GATEWAY_WARMUP_S).load)
    synth_s = time.perf_counter() - synth_started
    recorder = _StageRecorder() if traced else None
    gc.collect()
    cell = asyncio.run(_serve_cell(spec, warmup, schedule, recorder))
    latencies = cell.latencies_ms()
    summary = {
        "sent": len(schedule),
        "p50_ms": stats.percentile(latencies, 5000),
        "p99_ms": stats.percentile(latencies, 9900),
        "drain_ms": cell.drain_ms(schedule[-1].offset_seconds),
        "failed": cell.failed(),
    }
    if ladder_rung:
        return summary
    tally = {"completed": 0, "shed": 0, "timed_out": 0, "errored": 0,
             "wrong": 0}
    complete = (len(cell.shots) == len(schedule)
                and all(shot is not None for shot in cell.shots))
    for shot in cell.shots if complete else ():
        tally[shot.outcome] += 1
        if shot.outcome == "completed" and not shot.answer_ok:
            tally["wrong"] += 1
    summary.update({
        "complete": complete,
        "tally": tally,
        "lateness_ms": [(s.fired - s.intended) * 1000.0
                        for s in cell.shots],
        "latency_ms": latencies,
        "served_s": schedule[-1].offset_seconds + summary["drain_ms"] / 1e3,
        "reference_s": reference_s,
        "synth_s": synth_s,
        "build_s": cell.build_s,
        "cpu_s": cell.cpu_s,
        "rss_mb": peak_rss_mb(),
    })
    if recorder is not None:
        summary["stages"] = recorder.stage_samples(cell.shots)
        summary.update({
            "shed": cell.shed,
            "reuse": cell.reuse,
            "inflight_max": recorder.inflight_max,
            "batch_sizes": recorder.batch_sizes,
            "gc_pauses_ms": recorder.gc_pauses_ms,
        })
    return summary


def _cell_in_process(src_root: str, **request) -> dict:
    """Run :func:`_cell_summary` in a fresh interpreter and wait for it.

    A stack that :meth:`LocalPlatform.shutdown` has stopped still leaves
    its container worker threads, and everything they reference, alive;
    serving every cell from a fresh interpreter keeps one cell's leftovers
    out of the next cell's heap and collector pauses.
    """
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps({"src": src_root, **request}),
        capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"gateway cell failed (exit {out.returncode}):"
                           f"\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _ladder(rate_seed: int, src_root: str) -> Tuple[float, List[str]]:
    """Highest ladder rate meeting the limit with no growing backlog."""
    best = 0.0
    notes = []
    for index, rate in enumerate(RATE_LADDER):
        rung = _cell_in_process(src_root, rate=rate,
                                seed=rate_seed + 100 + index,
                                cell_s=RUNG_S, traced=False,
                                ladder_rung=True)
        passed = (rung["p99_ms"] <= LATENCY_LIMIT_MS and rung["failed"] == 0
                  and rung["drain_ms"] <= LATENCY_LIMIT_MS)
        notes.append(f"ladder {rate} rps: p99 {rung['p99_ms']:.1f} ms, "
                     f"failed {rung['failed']}, drain "
                     f"{rung['drain_ms']:.1f} ms -> "
                     f"{'pass' if passed else 'fail'}")
        if not passed:
            break
        best = float(rate)
    return best, notes


def run_gateway(rate: float, seed: int, seconds: float, traced: bool,
                src_root: str) -> Outcome:
    """Open-loop Poisson load at *rate* against the inproc gateway."""
    cell_s = max(GATEWAY_CELL_S, GATEWAY_CELL_REQUESTS / rate)
    cells: List[dict] = []
    budget = seconds / 3.0 if traced else seconds
    started = time.perf_counter()
    while not cells or time.perf_counter() - started < budget - cell_s:
        cells.append(_cell_in_process(src_root, rate=rate, seed=seed,
                                      cell_s=cell_s, traced=False,
                                      ladder_rung=False))
    traced_cell = None
    if traced:
        traced_cell = _cell_in_process(src_root, rate=rate, seed=seed,
                                       cell_s=cell_s, traced=True,
                                       ladder_rung=False)
    everything = cells + ([traced_cell] if traced_cell else [])
    tally = {"sent": 0, "completed": 0, "shed": 0, "timed_out": 0,
             "errored": 0, "wrong": 0}
    correct = True
    for cell in everything:
        correct = correct and cell["complete"]
        tally["sent"] += cell["sent"]
        for key, count in cell["tally"].items():
            tally[key] += count
    correct = correct and tally["wrong"] == 0 and tally["sent"] == sum(
        tally[k] for k in ("completed", "shed", "timed_out", "errored"))
    lateness = sorted(v for cell in cells for v in cell["lateness_ms"])
    lateness_p99 = stats.percentile(lateness, 9900)
    notes = [
        f"FaaSBatch gateway, inproc, {rate:g} rps Poisson, mix "
        f"io=0.1/echo=0.9, seed {seed}: {len(cells)} untraced cells, each "
        f"a fresh process serving {GATEWAY_WARMUP_S:g} s of warm-up then "
        f"{cell_s:g} s measured",
        f"sent {tally['sent']} = completed {tally['completed']} + shed "
        f"{tally['shed']} + timed-out {tally['timed_out']} + errored "
        f"{tally['errored']}; wrong answers {tally['wrong']}",
        stats.describe("latency from intended send", "ms",
                       [v for cell in cells for v in cell["latency_ms"]]),
        stats.describe("generator lateness", "ms", lateness),
        f"host reference p50 "
        f"{statistics.median(c['reference_s'] for c in cells) * 1e3:.1f} ms "
        f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)"]
    if rate <= 1000 and lateness_p99 > LATENCY_LIMIT_MS:
        notes.append("GENERATOR-BOUND: lateness p99 exceeds the "
                     f"{LATENCY_LIMIT_MS:g} ms limit at {rate:g} rps")
    latency: Metrics = {
        "lat_p50_ms": (statistics.median(c["p50_ms"] for c in cells), "ms"),
        "lat_p99_ms": (statistics.median(c["p99_ms"] for c in cells), "ms")}
    notes.append(f"median over cells: latency p50 "
                 f"{latency['lat_p50_ms'][0]:.3f} ms, p99 "
                 f"{latency['lat_p99_ms'][0]:.3f} ms")
    metrics: Metrics
    if traced_cell is not None:
        max_rps, ladder_notes = _ladder(seed, src_root)
        notes.extend(ladder_notes)
        pauses = traced_cell["gc_pauses_ms"]
        batches = traced_cell["batch_sizes"]
        metrics = {
            **latency,
            "gen.lateness_p99_ms": (lateness_p99, "ms"),
            "admission.shed": (traced_cell["shed"], "count"),
            "admission.inflight_max": (traced_cell["inflight_max"],
                                       "count"),
            "window.batch_size_mean": (
                statistics.fmean(batches) if batches else 0.0, "count"),
            "mux.reuse_ratio": (traced_cell["reuse"], "ratio"),
            "gc.pause_ms.max": (max(pauses, default=0.0), "ms"),
            "slo.max_rps": (max_rps, "1/s"),
            "trace_overhead": (traced_cell["cpu_s"] / statistics.median(
                cell["cpu_s"] for cell in cells), "ratio"),
        }
        notes.append(f"full collections during the traced cell: "
                     f"{len(pauses)}, longest "
                     f"{max(pauses, default=0.0):.1f} ms")
        for name, values in traced_cell["stages"].items():
            ordered = sorted(values)
            notes.append(stats.describe(name, "ms", ordered))
            metrics[f"{name}.p50"] = (
                stats.percentile(ordered, 5000) if ordered else 0.0, "ms")
            metrics[f"{name}.p99"] = (
                stats.percentile(ordered, 9900) if ordered else 0.0, "ms")
    else:
        completed = sum(cell["tally"]["completed"] for cell in cells)
        metrics = {
            "inv_per_s": (completed / sum(cell["served_s"]
                                          for cell in cells), "1/s"),
            "setup_s": (
                calibrated_import_seconds(Calibrated(), "gateway", src_root)
                + statistics.median(
                    (cell["synth_s"] + cell["build_s"]) * REFERENCE_NOMINAL_S
                    / cell["reference_s"] for cell in cells), "s"),
            "peak_rss_mb": (max(cell["rss_mb"] for cell in cells), "MB"),
        }
    failed = tally["sent"] - tally["completed"]
    return Outcome(correct, tally["sent"], failed, metrics, notes)


def _cell_main() -> int:
    """Child entry: one JSON request on stdin, one JSON summary out."""
    request = json.load(sys.stdin)
    sys.path.insert(0, request.pop("src"))
    print(json.dumps(_cell_summary(**request)))
    return 0


if __name__ == "__main__":
    sys.exit(_cell_main())
