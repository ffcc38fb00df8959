"""Tests for the cache-interference sweep driver (``sweep caches``)."""

from __future__ import annotations

import csv

import pytest

from repro.common.config import ASIDMode, BTBStyle
from repro.experiments import cache_interference
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import ExperimentEngine
from repro.experiments.runner import clear_trace_cache
from repro.experiments.sweep import aggregate_curves, write_csv

TINY_SCALE = ExperimentScale(
    name="tiny",
    instructions=6_000,
    warmup_fraction=0.25,
    server_workloads=1,
    client_workloads=1,
)


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


@pytest.fixture(scope="module")
def sweep_result():
    engine = ExperimentEngine(workers=1)
    return cache_interference.run(
        TINY_SCALE,
        presets=["consolidated_server"],
        quanta=(1_024, 4_096),
        tenant_counts=(1, 2, 4),
        engine=engine,
    )


def _curves(result, axis):
    return aggregate_curves(result["rows"])[(axis, "consolidated_server")]


def _series(points, metric):
    return [point[metric] for point in points]


class TestSweepStructure:
    def test_sections_and_curve_alignment(self, sweep_result):
        for axis, values in (("quantum", [1024, 4096]), ("tenant_count", [1, 2, 4])):
            curves = _curves(sweep_result, axis)
            assert set(curves) == {
                "BTB-X/cache-flush", "BTB-X/cache-tagged", "BTB-X/cache-partitioned"
            }
            for points in curves.values():
                assert _series(points, "axis_value") == values
                for point in points:
                    for metric in ("l1i_mpki", "l2_mpki", "ipc", "context_switches"):
                        assert point[metric] is not None, metric

    def test_flush_pays_at_least_tagged_l1i_mpki_at_every_quantum(self, sweep_result):
        """The CI smoke assertion, at test scale: flushing the hierarchy on
        every switch can never miss less than tagged retention."""
        curves = _curves(sweep_result, "quantum")
        flush = _series(curves["BTB-X/cache-flush"], "l1i_mpki")
        tagged = _series(curves["BTB-X/cache-tagged"], "l1i_mpki")
        assert all(f >= t for f, t in zip(flush, tagged)), (flush, tagged)

    def test_solo_point_identical_across_cache_modes(self, sweep_result):
        """One tenant means zero switches: the tenant-count=1 point must be
        bit-identical for every cache mode."""
        curves = _curves(sweep_result, "tenant_count")
        solo_values = {
            mode: curves[f"BTB-X/cache-{mode}"][0]["l1i_mpki"]
            for mode in ("flush", "tagged", "partitioned")
        }
        assert len(set(solo_values.values())) == 1, solo_values
        assert curves["BTB-X/cache-flush"][0]["context_switches"] == 0

    def test_partitioned_curves_report_cache_slices(self, sweep_result):
        curves = _curves(sweep_result, "tenant_count")
        partitioned = _series(curves["BTB-X/cache-partitioned"], "cache_partition_sets")
        # Multi-tenant points carry per-level slices; the solo point is one
        # tenant owning everything (still reported).
        assert partitioned[-1] is not None
        assert set(partitioned[-1]) == {"l1i", "l1d", "l2", "llc"}
        shared = _series(curves["BTB-X/cache-tagged"], "cache_partition_sets")
        assert all(point is None for point in shared)

    def test_per_tenant_l1i_mpki_present_for_scheduled_tenants(self, sweep_result):
        first_cell = sweep_result["rows"][0]
        assert first_cell["tenant"] == "(aggregate)"
        per_tenant = []
        for row in sweep_result["rows"][1:]:
            if row["tenant"] == "(aggregate)":
                break
            per_tenant.append(row)
        assert per_tenant  # at least the first tenants got scheduled
        for row in per_tenant:
            assert row["config"] == first_cell["config"] == "BTB-X/cache-flush"
            assert row["l1i_mpki"] >= 0.0 and row["l2_mpki"] >= 0.0


class TestCsvOutput:
    def test_csv_round_trip(self, sweep_result, tmp_path):
        path = tmp_path / "caches.csv"
        write_csv(sweep_result, str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(sweep_result["rows"])
        aggregates = [row for row in rows if row["tenant"] == "(aggregate)"]
        # 2 sweeps x (2 + 3 axis points) x 3 cache modes = 15 aggregate rows.
        assert len(aggregates) == 15
        assert {row["cache_mode"] for row in rows} == {"flush", "tagged", "partitioned"}
        for row in aggregates:
            assert float(row["l1i_mpki"]) >= 0.0
            assert float(row["l2_mpki"]) >= 0.0

    def test_format_report_renders_curves(self, sweep_result):
        report = cache_interference.format_report(sweep_result)
        assert "Cache-interference sweep" in report
        assert "consolidated_server vs quantum: 1024, 4096" in report
        assert "BTB-X/cache-flush" in report
        assert "l1i_mpki" in report and "l2_mpki" in report


class TestEnergyExport:
    def test_btbx_access_counts_include_the_companion(self):
        """The exported counters are the energy model's input: BTB-X's
        companion reads/writes must be merged in, and the export must agree
        with the per-structure counts inside the energy report."""
        from repro.scenarios.run import execute_scenario

        result = execute_scenario(
            "consolidated_server",
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            instructions=6_000,
            warmup_instructions=1_500,
        )
        counts = result.btb_access_counts
        assert counts["reads.companion"] > 0
        structures = result.energy["structures"]
        assert structures["companion"]["reads"] == counts["reads.companion"]
        assert structures["main"]["reads"] == counts["reads.main"]
        # Totals include the companion's traffic.
        assert counts["reads.total"] >= counts["reads.main"] + counts["reads.companion"]

    def test_companion_counters_respect_the_warmup_boundary(self):
        """The warmup reset must clear the companion's counters too: a
        warmed run's companion reads cover the measurement phase only, so
        they are strictly fewer than the same run measured from cold, and
        never exceed the main BTB's measurement-phase reads (the companion
        is only probed on main-BTB misses)."""
        from repro.scenarios.run import execute_scenario

        def run(warmup: int):
            return execute_scenario(
                "solo_baseline",
                style=BTBStyle.BTBX,
                asid_mode=ASIDMode.TAGGED,
                instructions=6_000,
                warmup_instructions=warmup,
            ).btb_access_counts

        cold, warmed = run(0), run(1_500)
        assert 0 < warmed["reads.companion"] < cold["reads.companion"]
        assert warmed["reads.companion"] <= warmed["reads.main"]

    def test_plain_job_payload_prices_the_companion_like_scenarios(self):
        """table5_energy's inputs (plain-job access_counts) must include the
        companion's traffic, exactly like ScenarioResult.btb_access_counts."""
        from repro.experiments.engine import SimJob, execute_job

        payload = execute_job(
            SimJob(
                workload="server_001",
                instructions=4_000,
                warmup_instructions=1_000,
                style=BTBStyle.BTBX,
                fdip_enabled=True,
                budget_kib=14.5,
            )
        )
        counts = payload["access_counts"]
        assert counts["reads.companion"] > 0
        assert counts["reads.companion"] <= counts["reads.main"]


class TestJobIdentity:
    def test_cache_mode_is_part_of_the_job_identity(self):
        from repro.experiments.engine import ScenarioJob

        base = dict(
            scenario="consolidated_server",
            instructions=4_000,
            warmup_instructions=1_000,
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
        )
        legacy = ScenarioJob(**base)
        tagged = ScenarioJob(**base, cache_asid_mode=ASIDMode.TAGGED)
        flush = ScenarioJob(**base, cache_asid_mode=ASIDMode.FLUSH)
        hashes = {job.config_hash() for job in (legacy, tagged, flush)}
        assert len(hashes) == 3
        assert legacy.config_dict()["cache_asid_mode"] is None
        assert tagged.config_dict()["cache_asid_mode"] == "tagged"

    def test_cache_mode_round_trips_through_the_disk_cache(self, tmp_path):
        from repro.experiments.engine import ScenarioJob

        job = ScenarioJob(
            scenario="consolidated_server",
            instructions=4_000,
            warmup_instructions=1_000,
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            cache_asid_mode=ASIDMode.PARTITIONED,
        )
        first = ExperimentEngine(workers=1, cache_dir=tmp_path).run_job(job)
        second = ExperimentEngine(workers=1, cache_dir=tmp_path).run_job(job)
        assert second.scenario.cache_mode == "partitioned"
        assert second.scenario.cache_partition_sets == first.scenario.cache_partition_sets
        assert second.scenario == first.scenario
