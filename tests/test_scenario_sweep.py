"""Property and metamorphic tests for the scenario sweep engine.

The sweep's contract points, each checked structurally rather than against
pinned numbers (the golden suite owns bit-exactness):

* the composer respects tenant weights to within one scheduling cycle of
  granularity, for arbitrary weights and quanta (hypothesis);
* a one-tenant sweep cell is **bit-identical** to the plain single-trace
  engine cell (the sweep's correctness anchor);
* sweep results are identical across engine worker counts;
* a warm engine cache replays a full sweep with zero simulations;
* variant derivation reuses the preset spec where the axes cross the preset's
  own coordinates, so sweep and study cells share cache entries, and every
  study row is the sweep row at the preset's own quantum.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ASIDMode, BTBStyle
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import (
    ExperimentEngine,
    ScenarioJob,
    SimJob,
)
from repro.experiments.runner import clear_trace_cache
from repro.experiments import scenario_study, scenario_sweep
from repro.experiments.sweep import aggregate_curves, write_csv
from repro.experiments.scenario_sweep import (
    DEFAULT_QUANTA,
    quantum_variant,
    tenant_count_variant,
)
from repro.scenarios.compose import TraceComposer
from repro.scenarios.presets import get_scenario
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.traces.store import default_store


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


TINY = ExperimentScale(
    name="tiny", instructions=6_000, warmup_fraction=0.25,
    server_workloads=1, client_workloads=1,
)

_WORKLOADS = ("server_001", "server_009", "client_001", "client_002")


# -- composer properties ------------------------------------------------------


class TestComposerWeightProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
        quantum=st.integers(min_value=16, max_value=512),
        cycles=st.integers(min_value=1, max_value=5),
        partial=st.integers(min_value=0, max_value=499),
    )
    def test_weighted_schedule_respects_weights_within_one_cycle(
        self, weights, quantum, cycles, partial
    ):
        """Each tenant's instruction share tracks its weight to within one
        scheduling cycle's granularity, for any stream length."""
        spec = ScenarioSpec(
            name="prop_weighted",
            tenants=tuple(
                TenantSpec(f"t{i}", _WORKLOADS[i % len(_WORKLOADS)], weight=w)
                for i, w in enumerate(weights)
            ),
            quantum_instructions=quantum,
            policy="weighted",
        )
        cycle = sum(spec.turn_quantum(t) for t in spec.tenants)
        total = cycles * cycle + min(partial, cycle - 1)
        store = default_store()
        traces = {w: store.get(w, 2_048) for w in set(spec.workloads)}
        counts: dict[str, int] = {t.name: 0 for t in spec.tenants}
        for _, tenant, _ in TraceComposer(spec, traces).stream(total):
            counts[tenant] += 1
        assert sum(counts.values()) == total
        weight_total = sum(weights)
        for tenant, weight in zip(spec.tenants, weights):
            exact_share = total * weight / weight_total
            assert abs(counts[tenant.name] - exact_share) < cycle

    @settings(max_examples=20, deadline=None)
    @given(
        quantum=st.integers(min_value=16, max_value=512),
        total=st.integers(min_value=0, max_value=4_096),
        semantics=st.sampled_from(["warm", "cold"]),
    )
    def test_switch_count_matches_the_turn_count(self, quantum, total, semantics):
        """Two tenants alternate every turn, so each turn after the first
        switches, under warm and cold semantics alike."""
        spec = ScenarioSpec(
            name="prop_switches",
            tenants=(TenantSpec("a", "server_001"), TenantSpec("b", "client_001")),
            quantum_instructions=quantum,
            switch_semantics=semantics,
        )
        store = default_store()
        traces = {w: store.get(w, 2_048) for w in set(spec.workloads)}
        switches, previous = 0, None
        for asid, _, _ in TraceComposer(spec, traces).stream(total):
            if previous is not None and asid != previous:
                switches += 1
            previous = asid
        turns = -(-total // quantum)
        assert switches == max(turns - 1, 0)


# -- variant derivation -------------------------------------------------------


class TestVariantDerivation:
    def test_preset_coordinates_reuse_the_preset_spec(self):
        """Sweep cells crossing the preset's own quantum/size must be
        cache-identical to the preset's own (scenario_study) cells."""
        spec = get_scenario("consolidated_server")
        assert quantum_variant(spec, spec.quantum_instructions) is spec
        assert tenant_count_variant(spec, len(spec.tenants)) is spec

    def test_quantum_variant_renames_and_reschedules(self):
        spec = get_scenario("consolidated_server")
        variant = quantum_variant(spec, 1_024)
        assert variant.name == "consolidated_server@q1024"
        assert variant.quantum_instructions == 1_024
        assert variant.tenants == spec.tenants

    def test_tenant_count_variant_takes_prefixes_and_cycles_beyond(self):
        spec = get_scenario("consolidated_server")
        two = tenant_count_variant(spec, 2)
        assert [t.name for t in two.tenants] == ["frontend", "search"]
        six = tenant_count_variant(spec, 6)
        assert [t.name for t in six.tenants] == [
            "frontend", "search", "ads", "feed", "frontend~2", "search~2"
        ]
        assert six.tenants[4].workload == spec.tenants[0].workload

    def test_bad_tenant_counts_rejected(self):
        spec = get_scenario("consolidated_server")
        for count in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError):
                tenant_count_variant(spec, count)


# -- engine-level metamorphic properties --------------------------------------


def _tiny_sweep(engine, **overrides):
    settings_ = dict(
        presets=["consolidated_server"],
        styles=(BTBStyle.BTBX,),
        asid_modes=(ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED),
        quanta=(512, 2_048),
        tenant_counts=(1, 4),
        engine=engine,
    )
    settings_.update(overrides)
    return scenario_sweep.run(TINY, **settings_)


class TestSweepEngineProperties:
    def test_single_tenant_cell_is_bit_identical_to_plain_run(self):
        """Acceptance: a one-tenant sweep cell equals the plain single-trace
        engine cell bit-for-bit, in every ASID mode."""
        engine = ExperimentEngine(workers=1)
        solo = tenant_count_variant(get_scenario("consolidated_server"), 1)
        assert [t.workload for t in solo.tenants] == ["server_001"]
        plain = engine.run_job(
            SimJob(
                workload="server_001",
                instructions=TINY.instructions,
                warmup_instructions=TINY.warmup_instructions,
                style=BTBStyle.BTBX,
                fdip_enabled=True,
                budget_kib=14.5,
            )
        )
        for mode in (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED):
            cell = engine.run_job(
                ScenarioJob(
                    scenario=solo.name,
                    instructions=TINY.instructions,
                    warmup_instructions=TINY.warmup_instructions,
                    style=BTBStyle.BTBX,
                    asid_mode=mode,
                    budget_kib=14.5,
                    spec=solo,
                )
            )
            assert cell.scenario.context_switches == 0
            actual = replace(cell.scenario.aggregate, workload=plain.result.workload)
            assert actual == plain.result, f"solo sweep cell diverged under {mode.value}"

    def test_repeated_presets_and_axis_values_are_deduplicated(self):
        engine = ExperimentEngine(workers=1)
        once = _tiny_sweep(engine, presets=["consolidated_server"])
        twice = _tiny_sweep(engine, presets=["consolidated_server", "consolidated_server"])
        assert twice == once  # duplicate points would misalign every curve
        doubled_axes = _tiny_sweep(
            engine, presets=["consolidated_server"],
            quanta=(512, 512, 2_048), tenant_counts=(1, 4, 4),
        )
        assert doubled_axes == once

    def test_sweep_results_identical_across_worker_counts(self):
        serial = _tiny_sweep(ExperimentEngine(workers=1))
        parallel = _tiny_sweep(ExperimentEngine(workers=2))
        assert serial == parallel

    def test_warm_cache_replays_full_sweep_with_zero_simulations(self, tmp_path):
        cold_engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        cold = _tiny_sweep(cold_engine)
        assert cold_engine.stats()["executed"] > 0

        warm_engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        warm = _tiny_sweep(warm_engine)
        assert warm_engine.stats()["executed"] == 0
        assert warm_engine.stats()["disk_hits"] > 0
        assert warm == cold

    def test_sweep_rows_structure_and_partition_sets(self):
        result = _tiny_sweep(ExperimentEngine(workers=1))
        curves = aggregate_curves(result["rows"])
        assert list(curves) == [
            ("quantum", "consolidated_server"), ("tenant_count", "consolidated_server")
        ]
        quantum_section = curves[("quantum", "consolidated_server")]
        assert set(quantum_section) == {"BTB-X/flush", "BTB-X/tagged", "BTB-X/partitioned"}
        for points in quantum_section.values():
            assert [point["axis_value"] for point in points] == [512, 2_048]
        # Every cell is followed by one row per scheduled tenant.
        tenant_rows = [row for row in result["rows"] if row["tenant"] != "(aggregate)"]
        assert tenant_rows and all(row["btb_mpki"] >= 0.0 for row in tenant_rows)
        partitioned = quantum_section["BTB-X/partitioned"]
        assert all(isinstance(p["partition_sets"], dict) and p["partition_sets"]
                   for p in partitioned)
        shared = quantum_section["BTB-X/tagged"]
        assert all(p["partition_sets"] is None for p in shared)
        # More tenants on the tenant axis -> at least as many context switches.
        for points in curves[("tenant_count", "consolidated_server")].values():
            assert points[0]["context_switches"] == 0  # solo anchor never switches
            assert points[-1]["context_switches"] > 0

    def test_shorter_quanta_mean_more_context_switches(self):
        result = _tiny_sweep(ExperimentEngine(workers=1))
        for points in aggregate_curves(result["rows"])[("quantum", "consolidated_server")].values():
            switches = [point["context_switches"] for point in points]
            assert switches[0] > switches[-1] >= 0

    def test_csv_rows_cover_every_point(self, tmp_path):
        result = _tiny_sweep(ExperimentEngine(workers=1))
        path = tmp_path / "sweep.csv"
        write_csv(result, str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result["rows"])
        aggregates = [row for row in rows if row["tenant"] == "(aggregate)"]
        # 3 modes x 1 style x (2 quanta + 2 tenant counts) = 12 aggregate rows.
        assert len(aggregates) == 12
        partitioned = [row for row in aggregates if row["asid_mode"] == "partitioned"]
        assert all(json.loads(row["partition_sets"]) for row in partitioned)

    def test_study_rows_are_the_sweep_rows_at_the_preset_quantum(self):
        """Each scenario_study row equals the scenario_sweep row at the same
        (preset, axis_value, config, tenant), and the study keeps exactly the
        sweep's rows at each preset's own quantum."""
        engine = ExperimentEngine(workers=1)
        presets = ["consolidated_server", "noisy_neighbor"]  # quanta 4096, 2048
        study = scenario_study.run(TINY, presets=presets, engine=engine)
        swept = scenario_sweep.run(
            TINY, presets=presets, quanta=(2_048, 4_096), tenant_counts=(1,), engine=engine
        )

        def key(row):
            return (row["preset"], row["axis"], row["axis_value"], row["config"], row["tenant"])

        own_quantum = {
            key(row): row for row in swept["rows"]
            if row["axis"] == "quantum"
            and row["axis_value"] == get_scenario(row["preset"]).quantum_instructions
        }
        assert [key(row) for row in study["rows"]] == list(own_quantum)
        for row in study["rows"]:
            assert row == own_quantum[key(row)]

    def test_default_quanta_are_sane(self):
        assert list(DEFAULT_QUANTA) == sorted(DEFAULT_QUANTA)
        assert all(q > 0 for q in DEFAULT_QUANTA)
