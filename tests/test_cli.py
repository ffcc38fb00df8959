"""Tests for the command-line interface.

Covers argument parsing, ``REPRO_SCALE`` override precedence, exit codes, the
``scenario list|run`` subcommands, the ``cache stats|prune`` subcommands, and
run-all's continue-past-failure behavior with ok/failed statuses in the
``--timings`` JSON.
"""

from __future__ import annotations

import json
import sys
import types

import pytest

from repro.cli import build_parser, main, resolve_scale, run_all
from repro.common.config import BTBStyle
from repro.experiments.config import FULL_SCALE, QUICK_SCALE, SMOKE_SCALE
from repro.experiments.engine import ExperimentEngine, ResultCache, SimJob
from repro.experiments.runner import clear_trace_cache
from repro.experiments.sweep import aggregate_curves


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    yield
    clear_trace_cache()


def _csv_matches_json_rows(csv_path, record) -> None:
    """``--csv`` holds the same rows as ``--json``, in the same order."""
    import csv

    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["axis_value"], row["config"], row["tenant"]) for row in rows] == [
        (str(row["axis_value"]), row["config"], row["tenant"]) for row in record["rows"]
    ]


def _seed_cache(cache_dir) -> int:
    """Run a couple of tiny jobs into a cache directory; returns entry count."""
    jobs = [
        SimJob(
            workload="client_001",
            instructions=4_000,
            warmup_instructions=1_000,
            style=style,
            fdip_enabled=True,
            budget_kib=0.90625,
        )
        for style in (BTBStyle.BTBX, BTBStyle.CONVENTIONAL)
    ]
    ExperimentEngine(workers=1, cache_dir=cache_dir).run_jobs(jobs)
    return len(jobs)


class TestArgumentParsing:
    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "fig09_mpki", "--scale", "smoke", "--workers", "3",
             "--cache-dir", "/tmp/c", "--json", "out.json"]
        )
        assert args.command == "run"
        assert args.experiment == "fig09_mpki"
        assert args.scale == "smoke"
        assert args.workers == 3
        assert args.cache_dir == "/tmp/c"
        assert args.json_path == "out.json"

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig99_nope"])
        assert excinfo.value.code == 2

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig09_mpki", "--workers", "0"])
        assert excinfo.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_scenario_run_arguments(self):
        args = build_parser().parse_args(
            ["scenario", "run", "noisy_neighbor", "--asid-modes", "tagged",
             "--scale", "smoke", "--json", "s.json", "--csv", "s.csv"]
        )
        assert args.command == "scenario"
        assert args.scenario_command == "run"
        assert args.presets == ["noisy_neighbor"]
        assert args.asid_modes == "tagged"
        assert args.json_path == "s.json"
        assert args.csv_path == "s.csv"

    def test_cache_commands_require_cache_dir(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["cache", "stats"])
        assert excinfo.value.code == 2
        args = build_parser().parse_args(
            ["cache", "prune", "--cache-dir", "/tmp/c", "--max-age-days", "7"]
        )
        assert args.cache_command == "prune"
        assert args.max_age_days == 7.0

    def test_benchmarking_is_not_a_subcommand(self):
        """perfbench/ and tools/perf_gate.py measure and gate; the CLI does not."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "smoke"])
        assert excinfo.value.code == 2
        assert "bench" not in build_parser().format_help()


class TestScaleResolution:
    def test_env_overrides_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale("smoke") is FULL_SCALE

    def test_flag_used_without_env(self):
        assert resolve_scale("smoke") is SMOKE_SCALE

    def test_unknown_env_value_falls_back_to_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        assert resolve_scale("quick") is QUICK_SCALE


class TestListCommands:
    def test_list_prints_every_experiment_and_exits_0(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09_mpki" in out
        assert "scenario_study" in out

    def test_scenario_list_prints_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for preset in ("solo_baseline", "consolidated_server",
                       "microservice_churn", "noisy_neighbor"):
            assert preset in out


class TestScenarioRun:
    def test_scenario_run_writes_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path, csv_path = tmp_path / "scenario.json", tmp_path / "scenario.csv"
        exit_code = main(
            ["scenario", "run", "solo_baseline", "--asid-modes", "flush",
             "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Scenario study" in out and "solo_baseline vs quantum: 8192" in out
        record = json.loads(json_path.read_text())
        assert record["experiment"] == "scenario_study"
        assert record["scale"] == "smoke"
        assert record["presets"] == ["solo_baseline"]
        assert record["asid_modes"] == ["flush"]
        curves = aggregate_curves(record["rows"])
        assert list(curves) == [("quantum", "solo_baseline")]
        points = curves[("quantum", "solo_baseline")]
        assert set(points) == {"Conv-BTB/flush", "BTB-X/flush"}
        for (point,) in points.values():
            assert point["axis_value"] == 8192 and point["context_switches"] == 0
        _csv_matches_json_rows(csv_path, record)

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "run", "no_such_scenario"])
        assert excinfo.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_asid_modes_exit_2(self, capsys):
        for modes in ("both", "all", "lukewarm", "flush,"):
            with pytest.raises(SystemExit) as excinfo:
                main(["scenario", "run", "solo_baseline", "--asid-modes", modes])
            assert excinfo.value.code == 2
            assert "--asid-modes:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "scenarios", "--preset", "consolidated_server",
             "--preset", "noisy_neighbor", "--quanta", "1024,4096",
             "--tenant-counts", "1,2", "--styles", "btbx",
             "--asid-modes", "flush,partitioned", "--budget-kib", "7.25",
             "--json", "sweep.json", "--csv", "sweep.csv"]
        )
        assert args.command == "sweep"
        assert args.sweep_command == "scenarios"
        assert args.presets == ["consolidated_server", "noisy_neighbor"]
        assert args.quanta == "1024,4096"
        assert args.tenant_counts == "1,2"
        assert args.budget_kib == 7.25
        assert args.json_path == "sweep.json"
        assert args.csv_path == "sweep.csv"

    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "scenarios", "--preset", "no_such_preset"])
        assert excinfo.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_quanta_exit_2(self, capsys):
        for flags in (["--quanta", "1024,banana"], ["--quanta", "0"],
                      ["--tenant-counts", "-2"], ["--styles", "warp-drive"],
                      ["--asid-modes", "lukewarm"], ["--asid-modes", "both"],
                      ["--budget-kib", "-1"], ["--budget-kib", "0"],
                      ["--budget-kib", "inf"], ["--budget-kib", "nan"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "scenarios", "--preset", "solo_baseline"] + flags)
            assert excinfo.value.code == 2

    def test_sweep_end_to_end_writes_json_and_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        exit_code = main(
            ["sweep", "scenarios", "--preset", "solo_baseline",
             "--quanta", "1024,4096", "--tenant-counts", "1",
             "--styles", "btbx", "--asid-modes", "flush,tagged",
             "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Scenario sweep" in out
        assert "solo_baseline vs quantum: 1024, 4096" in out
        record = json.loads(json_path.read_text())
        assert record["experiment"] == "scenario_sweep"
        curves = aggregate_curves(record["rows"])[("quantum", "solo_baseline")]
        assert set(curves) == {"BTB-X/flush", "BTB-X/tagged"}
        for points in curves.values():
            assert [point["axis_value"] for point in points] == [1024, 4096]
        assert csv_path.read_text().startswith("preset,axis,axis_value")
        _csv_matches_json_rows(csv_path, record)

    @pytest.mark.parametrize("command", ["scenarios", "shared"])
    def test_bad_styles_error_names_the_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", command, "--styles", "nope"])
        assert excinfo.value.code == 2
        assert "--styles:" in capsys.readouterr().err


class TestSharedSweepCommand:
    def test_shared_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "shared", "--preset", "shared_services",
             "--fractions", "0,0.5,1", "--styles", "pdede,rbtb",
             "--asid-modes", "tagged", "--budget-kib", "7.25",
             "--json", "shared.json", "--csv", "shared.csv"]
        )
        assert args.command == "sweep"
        assert args.sweep_command == "shared"
        assert args.preset == "shared_services"
        assert args.fractions == "0,0.5,1"
        assert args.json_path == "shared.json"
        assert args.csv_path == "shared.csv"

    def test_bad_shared_sweep_flags_exit_2(self, capsys):
        for flags in (["--fractions", "0.5,banana"], ["--fractions", "1.5"],
                      ["--fractions", "-0.25"], ["--styles", "warp-drive"],
                      ["--asid-modes", "lukewarm"], ["--asid-modes", "both"],
                      ["--budget-kib", "0"], ["--preset", "no_such_preset"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "shared"] + flags)
            assert excinfo.value.code == 2

    def test_shared_sweep_end_to_end_writes_json_and_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path, csv_path = tmp_path / "shared.json", tmp_path / "shared.csv"
        exit_code = main(
            ["sweep", "shared", "--fractions", "0.5,1",
             "--styles", "rbtb", "--asid-modes", "flush,tagged",
             "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Shared-footprint sweep" in out
        assert "page_duplicated" in out
        record = json.loads(json_path.read_text())
        assert record["experiment"] == "shared_footprint"
        curves = aggregate_curves(record["rows"])[("shared_fraction", "shared_services")]
        assert set(curves) == {"R-BTB/flush", "R-BTB/tagged"}
        for points in curves.values():
            assert [point["axis_value"] for point in points] == [0.5, 1.0]
        for point in curves["R-BTB/tagged"]:
            assert point["page_tag_distinct"] > point["page_distinct"]
        assert csv_path.read_text().startswith("preset,axis,axis_value")
        _csv_matches_json_rows(csv_path, record)


class TestCacheSweepCommand:
    def test_cache_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "caches", "--preset", "consolidated_server",
             "--quanta", "1024,4096", "--tenant-counts", "1,2",
             "--style", "btbx", "--cache-modes", "flush,tagged",
             "--budget-kib", "7.25", "--json", "c.json", "--csv", "c.csv"]
        )
        assert args.command == "sweep"
        assert args.sweep_command == "caches"
        assert args.presets == ["consolidated_server"]
        assert args.cache_modes == "flush,tagged"
        assert args.json_path == "c.json"
        assert args.csv_path == "c.csv"

    def test_bad_cache_sweep_flags_exit_2(self, capsys):
        for flags in (["--quanta", "0"], ["--cache-modes", "lukewarm"],
                      ["--style", "warp-drive"], ["--budget-kib", "0"],
                      ["--preset", "no_such_preset"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "caches"] + flags)
            assert excinfo.value.code == 2

    def test_multiple_styles_rejected_not_silently_truncated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "caches", "--style", "conventional,btbx"])
        assert excinfo.value.code == 2
        assert "exactly one BTB style" in capsys.readouterr().err

    def test_bad_cache_modes_error_names_the_right_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "caches", "--cache-modes", "lukewarm"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-modes" in err
        assert "--asid-modes" not in err

    def test_cache_sweep_end_to_end_writes_json_and_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path, csv_path = tmp_path / "caches.json", tmp_path / "caches.csv"
        exit_code = main(
            ["sweep", "caches", "--preset", "consolidated_server",
             "--quanta", "1024,4096", "--tenant-counts", "1",
             "--cache-modes", "flush,tagged",
             "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Cache-interference sweep" in out
        assert "consolidated_server vs quantum: 1024, 4096" in out
        record = json.loads(json_path.read_text())
        assert record["experiment"] == "cache_interference"
        curves = aggregate_curves(record["rows"])[("quantum", "consolidated_server")]
        assert set(curves) == {"BTB-X/cache-flush", "BTB-X/cache-tagged"}
        for points in curves.values():
            assert [point["axis_value"] for point in points] == [1024, 4096]
        flush = [point["l1i_mpki"] for point in curves["BTB-X/cache-flush"]]
        tagged = [point["l1i_mpki"] for point in curves["BTB-X/cache-tagged"]]
        assert all(f >= t for f, t in zip(flush, tagged)), (flush, tagged)
        assert csv_path.read_text().startswith("preset,axis,axis_value")
        _csv_matches_json_rows(csv_path, record)


class TestTenantSweepCommand:
    def test_tenant_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "tenants", "--tenant-counts", "4,16", "--asid-modes", "partitioned",
             "--cache-modes", "shared,partitioned", "--style", "pdede", "--seed", "7",
             "--isa", "x86", "--quantum", "128", "--shared-fraction", "0.5",
             "--budget-kib", "7.25", "--json", "t.json", "--csv", "t.csv"]
        )
        assert args.sweep_command == "tenants"
        assert args.tenant_counts == "4,16"
        assert args.cache_modes == "shared,partitioned"
        assert args.seed == 7
        assert args.isa == "x86"
        assert args.quantum_instructions == 128
        assert args.shared_fraction == 0.5
        assert args.json_path == "t.json"
        assert args.csv_path == "t.csv"

    def test_bad_tenant_sweep_flags_exit_2(self, capsys):
        for flags in (["--tenant-counts", "0"], ["--asid-modes", "lukewarm"],
                      ["--cache-modes", "shared,lukewarm"], ["--style", "pdede,btbx"],
                      ["--seed", "-1"], ["--isa", "riscv"], ["--quantum", "0"],
                      ["--shared-fraction", "1.5"], ["--budget-kib", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "tenants"] + flags)
            assert excinfo.value.code == 2, flags

    @pytest.mark.parametrize("command", ["caches", "tenants"])
    def test_bad_style_error_names_the_flag_typed(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", command, "--style", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--style:" in err
        assert "--styles" not in err

    def test_tenant_sweep_end_to_end_writes_json_and_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path, csv_path = tmp_path / "tenants.json", tmp_path / "tenants.csv"
        exit_code = main(
            ["sweep", "tenants", "--tenant-counts", "4,4", "--asid-modes", "partitioned",
             "--cache-modes", "shared,partitioned",
             "--json", str(json_path), "--csv", str(csv_path)]
        )
        assert exit_code == 0
        assert "Tenant scaling" in capsys.readouterr().out
        record = json.loads(json_path.read_text())
        assert record["experiment"] == "tenant_scale"
        assert record["cache_modes"] == ["shared", "partitioned"]
        curves = aggregate_curves(record["rows"])[("tenant_count", "gen_tenants_2023")]
        assert set(curves) == {"partitioned/cache-shared", "partitioned/cache-partitioned"}
        for (point,) in curves.values():
            assert point["axis_value"] == 4
            assert point["scheduled_tenants"] == 4
            assert point["mpki_p50"] <= point["mpki_p99"] <= point["mpki_max"]
            assert "main" in point["partitioned"]
        cache_point = curves["partitioned/cache-partitioned"][0]
        assert {"cache.l1i", "cache.llc"} <= set(cache_point["candidates"])
        _csv_matches_json_rows(csv_path, record)


class TestPlotCommand:
    def test_plot_missing_file_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", str(tmp_path / "missing.csv")])
        assert excinfo.value.code == 2
        assert "no such CSV file" in capsys.readouterr().err

    def test_plot_unrecognised_csv_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", str(bogus)])
        assert excinfo.value.code == 2
        assert "unrecognised" in capsys.readouterr().err

    def test_plot_renders_committed_smoke_csv(self, tmp_path, capsys):
        import pathlib

        smoke = pathlib.Path(__file__).parent.parent / "results" / "shared_footprint_smoke.csv"
        exit_code = main(["plot", str(smoke), "--out-dir", str(tmp_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        written = list(tmp_path.glob("*.svg"))
        assert written, "plot command produced no figures"
        assert any("btb_mpki" in path.name for path in written)
        assert sorted(tmp_path.iterdir()) == sorted(written), "plot writes SVG only"

    def test_plot_has_no_backend_option(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", str(tmp_path / "x.csv"), "--backend", "svg"])
        assert excinfo.value.code == 2


class TestCacheCommands:
    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        expected = _seed_cache(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"entries         : {expected}" in out
        assert "total bytes" in out

    def test_stats_on_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["cache", "stats", "--cache-dir", str(empty)]) == 0
        assert "entries         : 0" in capsys.readouterr().out

    def test_stats_on_nonexistent_directory_is_friendly_and_side_effect_free(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "never" / "created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries         : 0" in out
        assert "does not exist" in out
        # Probing a path must not create the directory as a side effect.
        assert not missing.exists() and not missing.parent.exists()

    def test_prune_on_nonexistent_directory_is_friendly_and_side_effect_free(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "never"
        assert main(["cache", "prune", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 entries" in out and "does not exist" in out
        assert not missing.exists()

    def test_prune_by_age_keeps_young_entries(self, tmp_path, capsys):
        expected = _seed_cache(tmp_path)
        for age in ("nan", "inf", "-1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["cache", "prune", "--cache-dir", str(tmp_path), "--max-age-days", age])
            assert excinfo.value.code == 2, age
            assert len(ResultCache(tmp_path)) == expected, age
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-age-days", "1"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == expected

    def test_prune_without_age_empties_the_cache(self, tmp_path, capsys):
        expected = _seed_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert f"pruned {expected}" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 0

    def test_prune_removes_old_entries(self, tmp_path):
        import os
        import time

        expected = _seed_cache(tmp_path)
        old = time.time() - 10 * 86400.0
        # Entries live in hash-prefix shard subdirectories; age the files.
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                os.utime(os.path.join(root, name), (old, old))
        cache = ResultCache(tmp_path)
        assert cache.prune(max_age_seconds=86400.0) == expected
        assert len(cache) == 0


class TestRunAllResilience:
    @pytest.fixture
    def _failing_registry(self, monkeypatch):
        """A registry with one healthy experiment and one that raises."""
        boom = types.ModuleType("repro.experiments.boom")
        boom.__doc__ = "Always fails (test fixture)."

        def run(scale, engine=None):
            raise RuntimeError("synthetic driver failure")

        def format_report(result):  # pragma: no cover - never reached
            return "boom"

        boom.run, boom.format_report = run, format_report
        monkeypatch.setitem(sys.modules, "repro.experiments.boom", boom)
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS", ("table3_storage", "boom", "table4_capacity")
        )

    def test_run_all_continues_past_failures(self, _failing_registry):
        summary = run_all("smoke", engine=ExperimentEngine(workers=1))
        assert summary["status"] == {
            "table3_storage": "ok", "boom": "failed", "table4_capacity": "ok"
        }
        assert summary["failed"] == ["boom"]
        assert "synthetic driver failure" in summary["errors"]["boom"]
        # Experiments after the failure still produced results.
        assert "table4_capacity" in summary["results"]
        assert "boom" not in summary["results"]

    def test_main_run_all_reports_failures_and_exits_1(
        self, _failing_registry, tmp_path, capsys
    ):
        timings = tmp_path / "timings.json"
        exit_code = main(["run-all", "--scale", "smoke", "--timings", str(timings)])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "boom" in out
        record = json.loads(timings.read_text())
        assert record["status"]["boom"] == "failed"
        assert record["status"]["table3_storage"] == "ok"
        assert "synthetic driver failure" in record["errors"]["boom"]
        assert set(record["timings_s"]) == {"table3_storage", "boom", "table4_capacity"}

    def test_main_run_all_exits_0_when_all_ok(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.cli.EXPERIMENTS", ("table4_capacity",))
        timings = tmp_path / "timings.json"
        assert main(["run-all", "--scale", "smoke", "--timings", str(timings)]) == 0
        record = json.loads(timings.read_text())
        assert record["status"] == {"table4_capacity": "ok"}
        assert record["errors"] == {}

    def test_timings_report_per_driver_instruction_throughput(
        self, monkeypatch, tmp_path
    ):
        """Drivers that simulate report instructions/sec; analytical ones report 0."""
        tiny = types.ModuleType("repro.experiments.tiny_sim")
        tiny.__doc__ = "Simulates one tiny job (test fixture)."

        def run(scale, engine=None):
            from repro.experiments.engine import get_active_engine

            job = SimJob(
                workload="client_001",
                instructions=4_000,
                warmup_instructions=1_000,
                style=BTBStyle.BTBX,
                fdip_enabled=True,
                budget_kib=0.90625,
            )
            get_active_engine().run_jobs([job])
            return {"ok": True}

        tiny.run = run
        tiny.format_report = lambda result: "tiny"
        monkeypatch.setitem(sys.modules, "repro.experiments.tiny_sim", tiny)
        monkeypatch.setattr("repro.cli.EXPERIMENTS", ("tiny_sim", "table4_capacity"))
        timings = tmp_path / "timings.json"
        assert main(["run-all", "--scale", "smoke", "--timings", str(timings)]) == 0
        record = json.loads(timings.read_text())
        assert record["instructions"]["tiny_sim"] == 4_000
        assert record["instructions_per_second"]["tiny_sim"] > 0
        assert record["instructions"]["table4_capacity"] == 0
        assert record["engine"]["instructions_simulated"] == sum(
            record["instructions"].values()
        )
        # Per-driver engine-counter deltas: the simulating driver executed its
        # one job (cold cache, so no memo/disk hits); the analytical driver
        # submitted nothing.
        tiny = record["engine_per_driver"]["tiny_sim"]
        assert tiny == {"submitted": 1, "executed": 1, "memo_hits": 0, "disk_hits": 0}
        assert record["engine_per_driver"]["table4_capacity"]["submitted"] == 0


class TestBackendFlag:
    def test_backend_flag_routes_through_environment(self, monkeypatch, capsys):
        import os

        import repro.cli as cli_module
        from repro.common.config import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        seen = {}
        real_dispatch = cli_module._dispatch

        def spy(args, parser):
            seen["backend"] = os.environ.get(BACKEND_ENV_VAR)
            return real_dispatch(args, parser)

        monkeypatch.setattr(cli_module, "_dispatch", spy)
        assert main(
            ["run", "table4_capacity", "--scale", "smoke", "--backend", "python"]
        ) == 0
        # main() exports the knob *for the duration of the command* so
        # simulation code (and forked pool workers) resolve it ...
        assert seen["backend"] == "python"
        # ... and restores the environment afterwards: invoking the CLI must
        # not leak the previous run's backend into the caller's process.
        assert BACKEND_ENV_VAR not in os.environ

    def test_backend_env_restored_to_prior_value(self, monkeypatch, capsys):
        import os

        from repro.common.config import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert main(
            ["run", "table4_capacity", "--scale", "smoke", "--backend", "python"]
        ) == 0
        assert os.environ[BACKEND_ENV_VAR] == "numpy"

    def test_unavailable_backend_fails_fast(self, monkeypatch, capsys):
        import repro.common.config as config

        real = config.resolve_backend

        def deny_numpy(backend):
            if backend == "numpy":
                raise config.ConfigurationError("backend 'numpy' requested but ...")
            return real(backend)

        monkeypatch.setattr(config, "resolve_backend", deny_numpy)
        with pytest.raises(SystemExit):
            main(["run", "table4_capacity", "--scale", "smoke", "--backend", "numpy"])
