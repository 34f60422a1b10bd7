"""FaaSBatch reproduction benchmark: one command, every metric, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-vanilla --seed 13 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a separate traced run (see ``perfbench/BENCHMARK.md``).  Human-
readable notes — the output digest, the sample counts, the generator's
health — come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in,
and from nowhere else: without it the benchmark exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Dict, List, Tuple

import gateway_tier
import layers
import tiers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 13
#: Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 29

#: End-to-end metrics, in ``BENCHMARK.json`` order: (name, unit).
END_TO_END: List[Tuple[str, str]] = [
    ("inv_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics, in ``BENCHMARK.json`` order: (name, unit).  A layer a
#: workload does not pass through reads 0.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in layers.LAYERS]
    + [("profiled.total_s", "s"),
       ("trace_overhead", "ratio"),
       ("kernel.events", "count"),
       ("kernel.events_per_inv", "count"),
       ("cpu.submits", "count"),
       ("sched.dispatches", "count"),
       ("sched.batch_size_mean", "count"),
       ("platform.cold_starts", "count"),
       ("platform.warm_hit_ratio", "ratio"),
       ("cluster.shard_wall_s.max", "s"),
       ("cluster.shard_wall_s.mean", "s"),
       ("cluster.imbalance", "ratio"),
       ("cluster.merge_s", "s"),
       ("lat_p50_ms", "ms"),
       ("lat_p99_ms", "ms"),
       ("gen.lateness_p99_ms", "ms"),
       ("admission.shed", "count"),
       ("admission.inflight_max", "count"),
       ("window.wait_ms.p50", "ms"),
       ("window.wait_ms.p99", "ms"),
       ("window.batch_size_mean", "count"),
       ("hop.ms.p50", "ms"),
       ("hop.ms.p99", "ms"),
       ("handler.ms.p50", "ms"),
       ("handler.ms.p99", "ms"),
       ("drain.ms.p50", "ms"),
       ("drain.ms.p99", "ms"),
       ("mux.reuse_ratio", "ratio"),
       ("gc.pause_ms.max", "ms"),
       ("slo.max_rps", "1/s")])

#: Simulated invocations per repeat of both simulator workloads, drawn as
#: bursty replay minutes of ``SIM_TILE_INVOCATIONS`` arrivals each: eight
#: independent minutes per repeat keep one seed's burst geometry from
#: setting the cost of the whole run.
SIM_INVOCATIONS = 4000
SIM_TILE_INVOCATIONS = 500
#: Invocations of one sharded replay.
CLUSTER_INVOCATIONS = 16000


#: Workload name -> runner(seed, seconds, traced) -> tiers.Outcome.
WORKLOADS: Dict[str, Callable] = {
    "sim-vanilla": lambda seed, seconds, traced: tiers.run_sim(
        "Vanilla", SIM_INVOCATIONS, SIM_TILE_INVOCATIONS, seed, seconds,
        traced, SRC),
    "sim-sfs": lambda seed, seconds, traced: tiers.run_sim(
        "SFS", SIM_INVOCATIONS, SIM_TILE_INVOCATIONS, seed, seconds,
        traced, SRC),
    "cluster-sharded": lambda seed, seconds, traced: tiers.run_cluster(
        CLUSTER_INVOCATIONS, seed, seconds, traced, SRC),
    "gateway-r1k": lambda seed, seconds, traced: gateway_tier.run_gateway(
        1000.0, seed, seconds, traced, SRC),
    "gateway-r3k": lambda seed, seconds, traced: gateway_tier.run_gateway(
        3000.0, seed, seconds, traced, SRC),
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")


def _result_line(outcome, declared: List[Tuple[str, str]]) -> str:
    metrics = {}
    for name, unit in declared:
        value, measured_unit = outcome.metrics.get(name, (0.0, unit))
        if measured_unit != unit:
            raise RuntimeError(f"{name}: measured in {measured_unit}, "
                               f"declared in {unit}")
        value = float(value)
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(outcome.correct),
                       "attempted": int(outcome.attempted),
                       "failed": int(outcome.failed),
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    _import_program()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
    for note in outcome.notes:
        print(f"# {note}")
    declared = PER_LAYER if args.trace else END_TO_END
    if not outcome.correct:
        print("# OUTPUT CHECK FAILED")
    print(_result_line(outcome, declared), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
