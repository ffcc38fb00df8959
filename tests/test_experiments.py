"""Smoke-scale tests of the experiment drivers and the CLI plumbing.

These run every driver at SMOKE scale so the full reproduction pipeline is
exercised end to end (workload generation -> simulation -> aggregation ->
report formatting) while keeping the suite fast.  Shape assertions are loose
on purpose: exact values live in EXPERIMENTS.md, produced at larger scales.
"""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_experiment
from repro.experiments import SMOKE_SCALE, current_scale, QUICK_SCALE
from repro.experiments import (
    ablation_ways,
    fig04_offsets,
    fig09_mpki,
    fig11_sweep,
    fig12_cvp,
    fig13_x86,
    table1_exynos,
    table3_storage,
    table4_capacity,
)
from repro.experiments.runner import clear_trace_cache, evaluation_traces, style_label
from repro.common.config import BTBStyle


@pytest.fixture(scope="module", autouse=True)
def _clear_cache_after_module():
    yield
    clear_trace_cache()


class TestScales:
    def test_presets(self):
        assert SMOKE_SCALE.instructions < QUICK_SCALE.instructions
        assert SMOKE_SCALE.warmup_instructions == int(
            SMOKE_SCALE.instructions * SMOKE_SCALE.warmup_fraction
        )

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale() is SMOKE_SCALE
        monkeypatch.setenv("REPRO_SCALE", "nonsense")
        assert current_scale() is QUICK_SCALE


class TestStaticDrivers:
    def test_table1(self):
        result = table1_exynos.run()
        assert result["growth_factor_m1_to_m6"] == pytest.approx(5.68, abs=0.05)
        assert "M6" in table1_exynos.format_report(result)

    def test_table3(self):
        result = table3_storage.run()
        measured = [row["storage_kib"] for row in result["rows"]]
        paper = [row["paper_storage_kib"] for row in result["rows"]]
        assert measured == pytest.approx(paper, rel=0.02)
        assert "Table III" in table3_storage.format_report(result)

    def test_table4(self):
        result = table4_capacity.run()
        summary = result["summary"]
        assert summary["btbx_over_conventional_min"] == pytest.approx(2.24, abs=0.02)
        assert 1.2 <= summary["btbx_over_pdede_min"] <= summary["btbx_over_pdede_max"] <= 1.4
        assert "Table IV" in table4_capacity.format_report(result)


class TestTraceDrivers:
    def test_runner_traces_cached_and_labelled(self):
        first = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))
        second = evaluation_traces(SMOKE_SCALE, suites=("ipc1_client",))
        assert [t.name for t in first] == [t.name for t in second]
        assert style_label(BTBStyle.BTBX) == "BTB-X"

    def test_fig04(self):
        result = fig04_offsets.run(SMOKE_SCALE)
        bands = result["bands"]
        assert sum(bands.values()) == pytest.approx(1.0, abs=1e-6)
        assert bands["gt_25_bits"] < 0.05
        assert result["cdf"] == sorted(result["cdf"])
        assert "Figure 4" in fig04_offsets.format_report(result)

    def test_fig09(self):
        result = fig09_mpki.run(SMOKE_SCALE)
        averages = result["averages"]
        assert averages["server"]["Conv-BTB"] >= averages["server"]["BTB-X"] * 0.9
        assert averages["client"]["Conv-BTB"] <= averages["server"]["Conv-BTB"] + 1e-9
        assert "Figure 9" in fig09_mpki.format_report(result)

    def test_fig11_smallest_budgets_only(self):
        result = fig11_sweep.run(SMOKE_SCALE, budgets_kib=(0.90625, 3.625))
        curves = result["curves"]["server"]
        assert set(curves) == {"Conv-BTB", "PDede", "BTB-X"}
        for series in curves.values():
            assert len(series) == 2
        assert "Figure 11" in fig11_sweep.format_report(result)

    def test_fig12(self):
        result = fig12_cvp.run(SMOKE_SCALE)
        assert 0 <= result["max_cdf_gap"] <= 0.35
        assert "Figure 12" in fig12_cvp.format_report(result)

    def test_fig13(self):
        result = fig13_x86.run(SMOKE_SCALE)
        assert result["capacity_ratio_vs_conventional"]["x86"] < result[
            "capacity_ratio_vs_conventional"
        ]["arm64"]
        assert len(result["x86_way_sizing_measured"]) == 8
        assert "Figure 13" in fig13_x86.format_report(result)

    def test_ablation_ways(self):
        result = ablation_ways.run(SMOKE_SCALE)
        variants = result["variants"]
        assert variants["uniform25"]["entries"] < variants["paper"]["entries"]
        assert "Ablation" in ablation_ways.format_report(result)
        # Pinned: the variants as sized by the ablation's own copy of the
        # BTB-X budget loop, before the storage model took the way widths.
        assert variants == {
            "paper": {
                "way_offset_bits": [0, 4, 5, 7, 9, 11, 19, 25],
                "entries": 4096,
                "avg_btb_mpki": 33.833333333333336,
            },
            "uniform25": {
                "way_offset_bits": [25] * 8,
                "entries": 2696,
                "avg_btb_mpki": 33.75,
            },
            "calibrated": {
                "way_offset_bits": [1, 1, 4, 5, 6, 7, 11, 45],
                "entries": 4096,
                "avg_btb_mpki": 34.0,
            },
        }


class TestCLI:
    def test_experiment_registry_complete(self):
        assert {
            "fig09_mpki",
            "table4_capacity",
            "table5_energy",
            "scenario_sweep",
            "shared_footprint",
        } <= set(EXPERIMENTS)

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not_an_experiment"])

    def test_run_experiment_helper(self):
        result = run_experiment("table3_storage", "smoke")
        assert result["experiment"] == "table3_storage"

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "fig09_mpki" in captured.out

    def test_main_run_static_experiment(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        assert main(["run", "table4_capacity", "--scale", "smoke", "--json", str(json_path)]) == 0
        assert json_path.exists()
        assert "Table IV" in capsys.readouterr().out
