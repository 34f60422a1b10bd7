"""Golden-trace equivalence: the lazy CPU engine vs the eager reference.

The lazy fair-share engine (`repro.sim.fair_share.FairShareCpu`) and the
eager reference engine (`repro.sim.legacy_cpu.LegacyFairShareCpu`)
implement one exact integer specification, so the same seed must give
byte-identical span traces, event logs and metrics on both.  Three layers
of proof:

1. ``tests/data/engine_goldens.json`` holds sha256 digests generated from
   this tree under the integer specification; the current tree must still
   produce them (guards the engines and the dispatch layer together).
2. ``tests/data/engine_golden_stamps.json`` holds the per-invocation stamp
   tables of the same runs, so a mismatch names the first diverging
   scenario, invocation and field instead of only a digest.
3. A direct in-memory byte comparison lazy-vs-eager on the raw artifacts
   (spans JSONL / event-log CSV / metrics JSON / per-invocation latencies
   and stamps) guards the two engines against each other.

Regenerate both golden files (only when an *intentional* behavior change
lands, and say why in CHANGES.md) with
``PYTHONPATH=src python tests/integration/test_engine_equivalence.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.baselines.kraken import (
    KrakenConfig,
    KrakenParameters,
    KrakenScheduler,
)
from repro.baselines.sfs import SfsScheduler
from repro.baselines.vanilla import VanillaScheduler
from repro.common.eventlog import EventLog
from repro.core.config import FaaSBatchConfig
from repro.core.scheduler import FaaSBatchScheduler
from repro.faults import ResiliencePolicy, reference_plan
from repro.obs import Observability
from repro.obs.trace import write_jsonl
from repro.platformsim.experiment import run_experiment
from repro.workload.generator import fib_family_specs, multi_function_trace

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "engine_goldens.json"
STAMPS_PATH = GOLDEN_PATH.with_name("engine_golden_stamps.json")
#: The columns of a stamp table row, one row per invocation.
STAMP_FIELDS = ("invocation_id", "state", "container_id", "attempts",
                "arrival_ms", "dispatched_ms", "execution_start_ms",
                "completed_ms", "responded_ms")

WINDOW_MS = 150.0
FUNCTIONS = 3
#: (config key, trace seed, total invocations, with faults+resilience)
SCENARIOS = [
    ("vanilla", 42, 240, False),
    ("sfs", 42, 240, False),
    ("kraken", 42, 240, False),
    ("faasbatch", 42, 240, False),
    ("vanilla+faults", 7, 160, True),
    ("faasbatch+faults", 7, 160, True),
]


def _specs():
    return fib_family_specs(FUNCTIONS)


def _kraken_parameters():
    """The paper's porting procedure: learn SLOs from a Vanilla run."""
    base = run_experiment(
        VanillaScheduler(),
        multi_function_trace(seed=42, total=240, functions=FUNCTIONS),
        _specs())
    return KrakenParameters.from_invocations(base.successful_invocations())


def _make_scheduler(key: str, kraken_parameters):
    name = key.split("+")[0]
    if name == "vanilla":
        return VanillaScheduler()
    if name == "sfs":
        return SfsScheduler()
    if name == "kraken":
        return KrakenScheduler(KrakenConfig(parameters=kraken_parameters,
                                            window_ms=WINDOW_MS))
    return FaaSBatchScheduler(FaaSBatchConfig(window_ms=WINDOW_MS))


def _run_artifacts(key: str, engine: str, kraken_parameters):
    """Run one scenario and return its byte-observable artifacts."""
    _name, seed, total, faulty = next(
        (k, s, t, f) for k, s, t, f in SCENARIOS if k == key)
    trace = multi_function_trace(seed=seed, total=total, functions=FUNCTIONS)
    obs = Observability(tracing=True)
    event_log = EventLog(enabled=True)
    kwargs = {}
    if faulty:
        kwargs.update(fault_plan=reference_plan(seed=5),
                      resilience=ResiliencePolicy())
    result = run_experiment(
        _make_scheduler(key, kraken_parameters), trace, _specs(),
        window_ms=WINDOW_MS, obs=obs, event_log=event_log,
        cpu_engine=engine, **kwargs)
    spans = io.StringIO()
    write_jsonl(spans, result.trace)
    return {
        "spans": spans.getvalue(),
        "eventlog": event_log.to_csv(),
        "metrics": json.dumps(result.metrics.snapshot(), sort_keys=True),
        "latencies": json.dumps(
            [[i.invocation_id, i.response_latency_ms]
             for i in result.invocations]),
        "stamps": [[inv.invocation_id, inv.state.value, inv.container_id,
                    inv.attempts, inv.arrival_ms, inv.dispatched_ms,
                    inv.execution_start_ms, inv.completed_ms,
                    inv.responded_ms]
                   for inv in result.invocations],
        "completion_ms": result.completion_ms,
        "invocations": len(result.invocations),
    }


def first_divergence(key: str, golden: list, stamps: list):
    """Name the first invocation and field where *stamps* leave *golden*.

    Returns ``None`` when the tables are equal.
    """
    for row, (want, got) in enumerate(zip(golden, stamps)):
        for field, expected, actual in zip(STAMP_FIELDS, want, got):
            if expected != actual:
                return (f"{key}: invocation {want[0]} (row {row}) diverges "
                        f"in {field}: golden {expected!r}, now {actual!r}")
    if len(golden) != len(stamps):
        return (f"{key}: {len(golden)} golden invocations, "
                f"{len(stamps)} now")
    return None


def _digest(artifacts: dict) -> dict:
    return {
        "spans_sha256": hashlib.sha256(
            artifacts["spans"].encode()).hexdigest(),
        "eventlog_sha256": hashlib.sha256(
            artifacts["eventlog"].encode()).hexdigest(),
        "metrics_sha256": hashlib.sha256(
            artifacts["metrics"].encode()).hexdigest(),
        "completion_ms": artifacts["completion_ms"],
        "invocations": artifacts["invocations"],
    }


@pytest.fixture(scope="module")
def kraken_parameters():
    return _kraken_parameters()


@pytest.fixture(scope="module")
def goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_stamps():
    with STAMPS_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", [k for k, *_ in SCENARIOS])
def test_engines_byte_identical(key, kraken_parameters, goldens,
                                golden_stamps):
    """Lazy vs eager raw artifacts match, and both match the goldens."""
    incremental = _run_artifacts(key, "incremental", kraken_parameters)
    legacy = _run_artifacts(key, "legacy", kraken_parameters)
    for field in ("spans", "eventlog", "metrics", "latencies", "stamps",
                  "completion_ms", "invocations"):
        assert incremental[field] == legacy[field], (
            f"{key}: engines diverge in {field}")
    divergence = first_divergence(key, golden_stamps[key],
                                  incremental["stamps"])
    assert divergence is None, divergence
    assert _digest(incremental) == goldens[key], (
        f"{key}: run no longer matches the golden digests")


def test_first_divergence_names_scenario_invocation_and_field():
    golden = [["inv-1", "completed", "c1", 1, 0.0, 1.0, 2.0, 3.0, 3.0],
              ["inv-2", "completed", "c1", 1, 0.5, 1.0, 2.5, 4.0, 4.0]]
    assert first_divergence("vanilla", golden, golden) is None
    drifted = [list(row) for row in golden]
    drifted[1][7] = 4.25
    assert first_divergence("vanilla", golden, drifted) == (
        "vanilla: invocation inv-2 (row 1) diverges in completed_ms: "
        "golden 4.0, now 4.25")
    assert first_divergence("sfs", golden, golden[:1]) == (
        "sfs: 2 golden invocations, 1 now")


def main() -> None:
    params = _kraken_parameters()
    runs = {key: _run_artifacts(key, "incremental", params)
            for key, *_ in SCENARIOS}
    goldens = {key: _digest(artifacts) for key, artifacts in runs.items()}
    stamps = {key: artifacts["stamps"] for key, artifacts in runs.items()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    # One row per line: a regenerated table diffs invocation by invocation.
    tables = []
    for key in sorted(stamps):
        rows = ",\n".join(f"  {json.dumps(row)}" for row in stamps[key])
        tables.append(f" {json.dumps(key)}: [\n{rows}\n ]")
    STAMPS_PATH.write_text("{\n" + ",\n".join(tables) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} and {STAMPS_PATH} "
          f"({len(goldens)} scenarios)")


if __name__ == "__main__":
    main()
