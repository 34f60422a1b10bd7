"""Smoke tests for the perf-bench harness (small scenario, full schema)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BASELINE_V1,
    BENCH_SCHEMA,
    OBS_RUN_LABEL,
    WINDOW_CELL_POLICIES,
    BenchConfig,
    TILE_INVOCATIONS,
    _baseline_table,
    _collect_cell,
    bench_trace,
    cluster_cell_configs,
    cluster_report,
    gateway_report,
    load_report,
    run_bench,
    run_cluster_cell,
    run_window_cells,
    validate_report,
    window_report,
    write_report,
)
from repro.common.errors import ConfigurationError


class TestBenchTrace:
    def test_default_tile_density(self):
        assert BenchConfig().tile_invocations == TILE_INVOCATIONS

    def test_tiles_to_requested_total(self):
        trace = bench_trace(BenchConfig(invocations=207, functions=3,
                                        tile_invocations=100))
        assert len(trace) == 207

    def test_arrivals_are_sorted_and_tiled(self):
        trace = bench_trace(BenchConfig(invocations=150, functions=2,
                                        tile_invocations=100))
        arrivals = [record.arrival_ms for record in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] >= 60_000.0  # the tail spills into tile 2

    def test_deterministic_per_seed(self):
        config = BenchConfig(invocations=100, functions=2, seed=5)
        first = bench_trace(config)
        second = bench_trace(config)
        assert [(r.arrival_ms, r.function_id, r.payload) for r in first] \
            == [(r.arrival_ms, r.function_id, r.payload) for r in second]

    def test_rejects_empty_scenario(self):
        with pytest.raises(ValueError):
            BenchConfig(invocations=0)

    def test_rejects_empty_tile(self):
        with pytest.raises(ValueError):
            BenchConfig(tile_invocations=0)


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self):
        # Inline mode: the report shape is identical to subprocess mode
        # (modulo rss_isolated) and the suite stays fast.
        return run_bench(BenchConfig(invocations=60, functions=2, seed=13,
                                     window_ms=150.0), isolate=False)

    def test_schema_validates(self, report):
        validate_report(report)
        assert report["schema"] == BENCH_SCHEMA

    def test_all_cells_present(self, report):
        cells = {(r["scheduler"], r["engine"]) for r in report["runs"]}
        assert cells == {
            ("Vanilla", "incremental"), ("Vanilla", "legacy"),
            ("SFS", "incremental"),
            ("Kraken", "incremental"), ("Kraken", "legacy"),
            ("FaaSBatch", "incremental"), ("FaaSBatch", "legacy"),
            (OBS_RUN_LABEL, "incremental"),
        }

    def test_inline_mode_marks_rss_unisolated(self, report):
        assert report["isolation"] == "inline"
        assert all(row["rss_isolated"] is False for row in report["runs"])

    def test_obs_overhead_block(self, report):
        overhead = report["obs_overhead"]
        assert overhead["wall_clock_ratio"] > 0
        assert overhead["plain_wall_clock_s"] > 0
        assert overhead["obs_wall_clock_s"] > 0
        # The obs run simulates the exact same scenario.
        by_cell = {(r["scheduler"], r["engine"]): r for r in report["runs"]}
        plain = by_cell[("FaaSBatch", "incremental")]
        obs = by_cell[(OBS_RUN_LABEL, "incremental")]
        assert obs["sim_completion_ms"] == plain["sim_completion_ms"]
        assert obs["invocations"] == plain["invocations"]

    def test_obs_run_excluded_from_speedup(self, report):
        assert OBS_RUN_LABEL not in report["speedup"]["per_scheduler"]

    def test_engines_agree_on_simulated_results(self, report):
        # The engines must differ only in wall-clock, never in outcome.
        by_cell = {(r["scheduler"], r["engine"]): r for r in report["runs"]}
        for name in ("Vanilla", "Kraken", "FaaSBatch"):
            incremental = by_cell[(name, "incremental")]
            legacy = by_cell[(name, "legacy")]
            assert incremental["sim_completion_ms"] \
                == legacy["sim_completion_ms"]
            assert incremental["invocations"] == legacy["invocations"]

    def test_speedup_table_covers_fair_share_schedulers(self, report):
        speedup = report["speedup"]
        assert set(speedup["per_scheduler"]) \
            == {"Vanilla", "Kraken", "FaaSBatch"}
        assert speedup["overall_wall_clock"] > 0
        assert speedup["max"] == max(speedup["per_scheduler"].values())

    def test_baseline_null_off_scenario(self, report):
        # The small test scenario differs from the committed baseline's,
        # so no speedup-vs-baseline table is emitted.
        assert report["baseline"] is None

    def test_config_has_no_queue_and_old_field_is_ignored(self, report):
        assert "queue" not in report["config"]
        older = json.loads(json.dumps(report))
        older["config"]["queue"] = "calendar"
        validate_report(older)

    def test_write_report_round_trips(self, report, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        write_report(report, str(path))
        loaded = json.loads(path.read_text())
        validate_report(loaded)
        assert loaded == report

    def test_skip_legacy_omits_speedup(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        validate_report(report)
        assert report["speedup"] is None
        assert {r["engine"] for r in report["runs"]} == {"incremental"}


class TestSubprocessIsolation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(BenchConfig(invocations=40, functions=2),
                         skip_legacy=True, isolate=True, parallel=2)

    def test_schema_validates(self, report):
        validate_report(report)
        assert report["isolation"] == "subprocess"
        assert all(row["rss_isolated"] is True for row in report["runs"])

    def test_matches_inline_simulated_results(self, report):
        inline = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        key = lambda r: (r["scheduler"], r["engine"])  # noqa: E731
        sub_rows = {key(r): r for r in report["runs"]}
        for row in inline["runs"]:
            other = sub_rows[key(row)]
            assert other["sim_completion_ms"] == row["sim_completion_ms"]
            assert other["kernel_events"] == row["kernel_events"]
            assert other["invocations"] == row["invocations"]

    def test_canonical_row_order(self, report):
        assert [r["scheduler"] for r in report["runs"]] \
            == ["Vanilla", "SFS", "Kraken", "FaaSBatch", OBS_RUN_LABEL]


class TestCellPipes:
    SPEC = {"scheduler": "Vanilla", "engine": "incremental"}

    def test_stderr_flood_then_success(self, stderr_flood):
        proc = stderr_flood(0)
        assert _collect_cell(proc, self.SPEC) == {}
        assert proc.returncode == 0

    def test_stderr_flood_then_failure_keeps_tail(self, stderr_flood):
        proc = stderr_flood(1)
        with pytest.raises(RuntimeError, match=r"(?s)exit 1\).*last words"):
            _collect_cell(proc, self.SPEC)


class TestProfile:
    def test_profile_rows_embedded(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False, profile_top=5)
        validate_report(report)
        for row in report["runs"]:
            assert row["profiled"] is True
            top = row["profile_top"]
            assert 0 < len(top) <= 5
            for hotspot in top:
                assert hotspot["cumtime_s"] >= hotspot["tottime_s"] - 1e-9
                assert isinstance(hotspot["function"], str)
        # Profiled wall-clocks measure the profiler: never compare them
        # against the committed baseline.
        assert report["baseline"] is None


class TestBaselineTable:
    def _synthetic_runs(self, factor=2.0):
        runs = []
        for (scheduler, engine), (wall, events) in BASELINE_V1.items():
            runs.append({"scheduler": scheduler, "engine": engine,
                         "wall_clock_s": wall / factor,
                         "kernel_events": events})
        return runs

    def test_speedup_against_committed_numbers(self):
        table = _baseline_table(self._synthetic_runs(2.0), BenchConfig())
        aggregate = table["aggregate_events_per_sec"]
        assert aggregate["speedup"] == pytest.approx(2.0, abs=0.02)
        assert aggregate["all_cells_speedup"] == pytest.approx(2.0, abs=0.02)
        assert aggregate["cells"] == sum(
            1 for (_, engine) in BASELINE_V1 if engine == "incremental")
        assert aggregate["all_cells"] == len(BASELINE_V1)
        assert len(table["per_cell"]) == len(BASELINE_V1)
        for cell in table["per_cell"].values():
            assert cell["wall_clock_speedup"] == pytest.approx(2.0,
                                                               abs=0.01)
            assert cell["events_per_sec_speedup"] == pytest.approx(2.0,
                                                                   abs=0.01)

    def test_none_when_config_differs(self):
        runs = self._synthetic_runs()
        assert _baseline_table(runs, BenchConfig(invocations=99)) is None

    def test_profiled_rows_excluded(self):
        runs = self._synthetic_runs()
        for row in runs:
            row["profiled"] = True
        assert _baseline_table(runs, BenchConfig()) is None


class TestValidateReport:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            validate_report({"schema": "something-else"})

    def test_rejects_missing_speedup_with_legacy_column(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        report["engines"] = ["incremental", "legacy"]
        with pytest.raises(ValueError):
            validate_report(report)

    def test_rejects_negative_metric(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        report["runs"][0]["wall_clock_s"] = -1.0
        with pytest.raises(ValueError):
            validate_report(report)

    def test_rejects_missing_rss_isolated(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        del report["runs"][0]["rss_isolated"]
        with pytest.raises(ValueError):
            validate_report(report)

    def test_rejects_missing_baseline_key(self):
        report = run_bench(BenchConfig(invocations=40, functions=2),
                           skip_legacy=True, isolate=False)
        del report["baseline"]
        with pytest.raises(ValueError):
            validate_report(report)


class TestAtomicWrites:
    def _report(self):
        return run_bench(BenchConfig(invocations=40, functions=2),
                         skip_legacy=True, isolate=False)

    def test_failed_write_preserves_previous_artifact(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        report = self._report()
        write_report(report, str(path))
        # An invalid report must neither replace the published artifact
        # nor leave a temp file behind.
        broken = dict(report, schema="bogus")
        with pytest.raises(ValueError):
            write_report(broken, str(path))
        assert load_report(str(path)) == report
        assert list(tmp_path.iterdir()) == [path]

    def test_load_report_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        report = self._report()
        write_report(report, str(path))
        assert load_report(str(path)) == report

    def test_load_report_rejects_truncated_artifact(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        report = self._report()
        write_report(report, str(path))
        content = path.read_text()
        path.write_text(content[:len(content) // 2])  # simulate dead writer
        with pytest.raises(ValueError, match="partial or corrupt"):
            load_report(str(path))

    def test_load_report_rejects_invalid_report(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA}))
        with pytest.raises(ValueError, match=str(path)):
            load_report(str(path))

    def test_load_report_rejects_non_object(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="report object"):
            load_report(str(path))


class TestClusterCells:
    @pytest.fixture(scope="class")
    def row(self):
        # The smoke topology at 1/10 volume; inline keeps the suite fast.
        return run_cluster_cell("azure-smoke", isolate=False, shards=2,
                                workers=4)

    def test_named_cells_exist(self):
        cells = cluster_cell_configs()
        assert set(cells) == {"azure-smoke", "azure-full"}
        assert cells["azure-full"].invocations == 1_980_000
        with pytest.raises(ValueError, match="unknown cluster cell"):
            run_cluster_cell("azure-mystery")

    def test_row_shape(self, row):
        assert row["cell"] == "azure-smoke"
        assert row["completed"] == 20_000
        assert row["failed"] == 0
        assert row["isolation"] == "inline"
        assert len(row["per_shard"]) == 2
        assert row["latency_ms"]["count"] == 20_000
        assert row["invocations_per_sec"] > 0

    def test_cluster_report_validates(self, row):
        report = cluster_report([row])
        validate_report(report)
        assert report["schema"] == BENCH_SCHEMA
        assert "runs" not in report

    def test_cluster_report_write_and_load(self, row, tmp_path):
        path = tmp_path / "BENCH_cluster.json"
        report = cluster_report([row])
        write_report(report, str(path))
        assert load_report(str(path)) == report

    def test_validator_rejects_malformed_cells(self, row):
        report = cluster_report([dict(row, max_shard_rss_mb=-1.0)])
        with pytest.raises(ValueError, match="max_shard_rss_mb"):
            validate_report(report)
        report = cluster_report([dict(row, per_shard=[])])
        with pytest.raises(ValueError, match="per_shard"):
            validate_report(report)
        with pytest.raises(ValueError, match="at least one"):
            cluster_report([])

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError, match="runs.*cluster_cells"):
            validate_report({"schema": BENCH_SCHEMA,
                             "config": {"invocations": 1, "functions": 1,
                                        "seed": 13}})


class TestGatewayCells:
    @staticmethod
    def row(**overrides):
        base = {
            "cell": "faasbatch", "policy": "faasbatch",
            "transport": "inproc",
            "config": {"rps": 1000.0, "duration_s": 5.0, "seed": 13,
                       "arrival": "poisson",
                       "mix": {"echo": 0.9, "io": 0.1}},
            "offered_rps": 1000.0, "requests": 5000, "completed": 5000,
            "shed": 0, "timeouts": 0, "errors": 0,
            "achieved_rps": 998.0, "goodput_rps": 998.0,
            "goodput_ratio": 1.0,
            "latency_ms": {"count": 5000, "mean": 12.0, "p50": 10.0,
                           "p95": 25.0, "p99": 40.0, "max": 80.0},
            "lateness_ms": {"count": 5000, "mean": 0.2, "p50": 0.1,
                            "p95": 0.5, "p99": 1.0, "max": 5.0},
            "mode_flips": [], "final_mode": "batch",
            "batches_dispatched": 450, "mean_batch_size": 11.1,
        }
        base.update(overrides)
        return base

    def test_gateway_report_validates(self):
        report = gateway_report([self.row()])
        validate_report(report)
        assert report["schema"] == BENCH_SCHEMA
        assert report["config"] == {"invocations": 5000, "functions": 2,
                                    "seed": 13}

    def test_gateway_report_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_gateway.json"
        report = gateway_report([self.row(),
                                 self.row(cell="vanilla",
                                          policy="vanilla")])
        write_report(report, str(path))
        assert load_report(str(path)) == report
        assert report["config"]["invocations"] == 10_000

    def test_requires_at_least_one_cell(self):
        with pytest.raises(ValueError, match="at least one"):
            gateway_report([])

    @pytest.mark.parametrize("overrides,match", [
        ({"policy": "magic"}, "policy"),
        ({"transport": "grpc"}, "transport"),
        ({"goodput_ratio": 1.5}, "goodput_ratio"),
        ({"requests": -1}, "requests"),
        ({"mode_flips": 3}, "mode_flips"),
        ({"latency_ms": {"p50": 1.0}}, "latency_ms"),
        ({"config": {"rps": 100.0}}, "config"),
    ])
    def test_validator_rejects_malformed_cells(self, overrides, match):
        report = gateway_report([self.row()])
        report["gateway_cells"] = [self.row(**overrides)]
        with pytest.raises(ValueError, match=match):
            validate_report(report)

    def test_mixed_report_with_cluster_cells(self):
        cluster_row = {
            "cell": "azure-smoke",
            "config": {"invocations": 100, "functions": 2, "seed": 13,
                       "workers": 4, "shards": 2},
            "isolation": "inline", "invocations": 100, "completed": 100,
            "failed": 0, "wall_clock_s": 1.0,
            "invocations_per_sec": 100.0, "sim_completion_ms": 1000.0,
            "kernel_events": 500, "max_shard_rss_mb": 10.0,
            "load_imbalance": 0.1,
            "per_shard": [{"shard": 0, "submitted": 50,
                           "wall_clock_s": 1.0, "peak_rss_mb": 10.0}],
            "latency_ms": {"count": 100, "mean": 5.0, "p50": 4.0,
                           "p95": 9.0, "p99": 10.0},
        }
        report = gateway_report([self.row()])
        report["cluster_cells"] = [cluster_row]
        validate_report(report)  # both sections coexist


class TestSchedulerSelection:
    CONFIG = BenchConfig(invocations=40, functions=2)

    def test_selection_runs_only_selected(self):
        report = run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                           schedulers="hiku,datadriven")
        validate_report(report)
        assert report["schedulers"] == ["Hiku", "DataDriven"]
        assert [r["scheduler"] for r in report["runs"]] \
            == ["Hiku", "DataDriven"]
        assert report["obs_overhead"] is None

    def test_rows_follow_registry_order_not_selection_order(self):
        report = run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                           schedulers="datadriven,vanilla")
        assert report["schedulers"] == ["Vanilla", "DataDriven"]

    def test_faasbatch_selection_keeps_obs_cell(self):
        report = run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                           schedulers="faasbatch")
        validate_report(report)
        assert [r["scheduler"] for r in report["runs"]] \
            == ["FaaSBatch", OBS_RUN_LABEL]
        assert report["obs_overhead"]["wall_clock_ratio"] > 0

    def test_kraken_requires_vanilla(self):
        with pytest.raises(ValueError, match="add vanilla"):
            run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                      schedulers="kraken,sfs")

    def test_unknown_scheduler_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                      schedulers="warp-drive")

    def test_legacy_engine_skipped_without_fair_share_trio(self):
        report = run_bench(self.CONFIG, isolate=False, schedulers="hiku")
        validate_report(report)
        assert report["engines"] == ["incremental"]
        assert report["speedup"] is None

    def test_partial_legacy_speedup_table(self):
        report = run_bench(self.CONFIG, isolate=False,
                           schedulers="vanilla,hiku")
        validate_report(report)
        assert set(report["speedup"]["per_scheduler"]) == {"Vanilla"}
        # Hiku only exists in the incremental engine.
        assert ("Hiku", "legacy") not in {
            (r["scheduler"], r["engine"]) for r in report["runs"]}

    def test_default_selection_matches_classic_report(self):
        report = run_bench(self.CONFIG, skip_legacy=True, isolate=False)
        assert report["schedulers"] == ["Vanilla", "SFS", "Kraken",
                                        "FaaSBatch"]

    def test_validator_rejects_obs_block_without_faasbatch(self):
        report = run_bench(self.CONFIG, skip_legacy=True, isolate=False,
                           schedulers="vanilla")
        report["obs_overhead"] = {"plain_wall_clock_s": 1.0,
                                  "obs_wall_clock_s": 1.0,
                                  "wall_clock_ratio": 1.0}
        with pytest.raises(ValueError, match="obs_overhead must be null"):
            validate_report(report)


class TestWindowCells:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_window_cells(BenchConfig(invocations=60, functions=2),
                                isolate=False)

    def test_one_row_per_policy(self, rows):
        assert [r["cell"] for r in rows] == list(WINDOW_CELL_POLICIES)
        for row in rows:
            assert row["scheduler"].startswith("FaaSBatch[")
            assert row["window_policy"] == row["cell"]
            assert row["latency_ms"]["count"] == row["invocations"]
            assert row["containers"] > 0
            assert 0 <= row["goodput"] <= 1

    def test_window_report_round_trips(self, rows, tmp_path):
        config = BenchConfig(invocations=60, functions=2)
        report = window_report(config, rows)
        validate_report(report)
        path = tmp_path / "BENCH_windows.json"
        write_report(report, str(path))
        assert load_report(str(path)) == report

    def test_adaptive_differs_from_fixed_under_load(self):
        # Dense enough that the adaptive policy actually shrinks the
        # window (at sparse load it sits at max_ms and ties with fixed).
        rows = run_window_cells(BenchConfig(invocations=400, functions=4),
                                isolate=False)
        by_cell = {r["cell"]: r for r in rows}
        assert by_cell["adaptive"]["latency_ms"] \
            != by_cell["fixed"]["latency_ms"]

    def test_requires_at_least_one_row(self):
        with pytest.raises(ValueError, match="at least one"):
            window_report(BenchConfig(invocations=60, functions=2), [])

    def test_validator_rejects_malformed_cells(self, rows):
        config = BenchConfig(invocations=60, functions=2)
        report = window_report(config, [dict(rows[0], cell="magic")])
        with pytest.raises(ValueError, match="window cell"):
            validate_report(report)
        report = window_report(config, [dict(rows[0],
                                             window_policy="adaptive")])
        with pytest.raises(ValueError, match="must match"):
            validate_report(report)
        report = window_report(config, [{k: v for k, v in rows[0].items()
                                         if k != "latency_ms"}])
        with pytest.raises(ValueError, match="latency_ms"):
            validate_report(report)
