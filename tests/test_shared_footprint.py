"""Property tests for the shared-footprint remap and its sweep driver.

The remap's structural contracts, checked with hypothesis where randomization
helps (the golden suite and the differential matrix own bit-exactness):

* per tenant, the remapped shared and private page sets are disjoint -- and
  the private sets of *different* tenants are disjoint too, while the shared
  sets nest (rank-based, so tenants running the same binary coincide);
* remapping never changes instruction counts or the per-tenant schedule
  shares of the composed stream;
* remapping is deterministic across engine worker counts (scenario cells
  with a shared footprint stay bit-identical, duplication counters included);
* the sweep driver reports aligned curves, duplication monotone in the
  overlap fraction over the remapped cells, and replays from a warm cache
  with zero simulations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import ASIDMode, BTBStyle
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentScale
from repro.experiments.engine import ExperimentEngine, ScenarioJob
from repro.experiments.runner import clear_trace_cache
from repro.experiments import shared_footprint
from repro.experiments.shared_footprint import shared_variant
from repro.experiments.sweep import aggregate_curves, write_csv
from repro.isa.instruction import Instruction
from repro.scenarios.compose import (
    PAGE_SHIFT,
    PRIVATE_BASE_PAGE,
    PRIVATE_TENANT_STRIDE_PAGES,
    SHARED_BASE_PAGE,
    SHARED_SLOT_STRIDE_PAGES,
    TraceComposer,
    remap_tenant_trace,
    shared_page_split,
    _PAGE_MASK,
    tenant_code_pages,
)
from repro.scenarios.presets import get_scenario
from repro.scenarios.run import execute_scenario
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.traces.store import default_store


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


_WORKLOADS = ("server_001", "server_009", "client_001", "client_002")

TINY = ExperimentScale(
    name="tiny", instructions=6_000, warmup_fraction=0.25,
    server_workloads=1, client_workloads=1,
)


def _spec(fraction: float, tenant_count: int = 2, quantum: int = 512) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"prop_shared@{fraction:g}x{tenant_count}",
        tenants=tuple(
            TenantSpec(f"t{i}", _WORKLOADS[i % len(_WORKLOADS)]) for i in range(tenant_count)
        ),
        quantum_instructions=quantum,
        shared_fraction=fraction,
    )


def _region_of(page: int, tenant_index: int) -> str:
    private_base = PRIVATE_BASE_PAGE + tenant_index * PRIVATE_TENANT_STRIDE_PAGES
    if SHARED_BASE_PAGE <= page < PRIVATE_BASE_PAGE:
        return "shared"
    if private_base <= page < private_base + PRIVATE_TENANT_STRIDE_PAGES:
        return "private"
    return "foreign"


class TestSharedPageSplit:
    def test_decimal_fractions_split_without_truncation(self):
        """Regression: ``int(10 * 0.7)`` is 6 because 0.7 is not a binary
        float; the split must honour the decimal the user actually wrote."""
        assert shared_page_split(10, 0.7) == 7
        assert shared_page_split(100, 0.29) == 29
        assert shared_page_split(1000, 0.001) == 1
        # Still a floor, never a round-up past the true product.
        assert shared_page_split(3, 0.1) == 0
        assert shared_page_split(7, 0.5) == 3

    def test_binary_exact_fractions_match_the_old_truncation(self):
        """Golden safety: the pinned shared-footprint cells use 0.5 and the
        sweep grid uses quarters -- all binary-exact fractions where the old
        ``int(count * fraction)`` was already correct.  Byte-identical here
        means the rewrite cannot move a golden cell."""
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            for count in range(257):
                assert shared_page_split(count, fraction) == int(count * fraction)


class TestRemapPageProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        fraction=st.floats(min_value=0.01, max_value=1.0),
        tenant_count=st.integers(min_value=1, max_value=3),
    )
    def test_shared_and_private_page_sets_are_disjoint(self, fraction, tenant_count):
        store = default_store()
        per_tenant_pages = []
        for index in range(tenant_count):
            trace = store.get(_WORKLOADS[index % len(_WORKLOADS)], 2_048)
            original_pages = tenant_code_pages(trace)
            remapped = remap_tenant_trace(trace, index, fraction, shared_slot=index)
            pages = set(tenant_code_pages(remapped))
            # Bijection: the footprint never grows or shrinks.
            assert len(pages) == len(original_pages)
            shared = {page for page in pages if _region_of(page, index) == "shared"}
            private = pages - shared
            # Every page lands in the tenant's own window or the shared region.
            assert all(_region_of(page, index) == "private" for page in private)
            assert shared.isdisjoint(private)
            assert len(shared) == shared_page_split(len(original_pages), fraction)
            # Rank-based shared mapping: a contiguous run from the slot's base.
            slot_base = SHARED_BASE_PAGE + index * SHARED_SLOT_STRIDE_PAGES
            assert shared == {slot_base + rank for rank in range(len(shared))}
            per_tenant_pages.append((shared, private))
        # Private windows never collide across tenants, and neither do the
        # shared regions of tenants in different slots (different binaries).
        for left in range(tenant_count):
            for right in range(left + 1, tenant_count):
                assert per_tenant_pages[left][1].isdisjoint(per_tenant_pages[right][1])
                assert per_tenant_pages[left][0].isdisjoint(per_tenant_pages[right][0])

    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(min_value=0.01, max_value=1.0))
    def test_same_workload_tenants_share_the_shared_mapping(self, fraction):
        store = default_store()
        trace = store.get("server_009", 2_048)
        left = remap_tenant_trace(trace, 0, fraction)
        right = remap_tenant_trace(trace, 1, fraction)
        shared_left = {p for p in tenant_code_pages(left) if p < PRIVATE_BASE_PAGE}
        shared_right = {p for p in tenant_code_pages(right) if p < PRIVATE_BASE_PAGE}
        assert shared_left == shared_right

    @settings(max_examples=10, deadline=None)
    @given(fraction=st.floats(min_value=0.01, max_value=1.0))
    def test_remap_preserves_branch_structure(self, fraction):
        """Branch mix, taken-ness, ordering and same-pageness all survive."""
        store = default_store()
        trace = store.get("client_001", 2_048)
        remapped = remap_tenant_trace(trace, 0, fraction)
        assert len(remapped) == len(trace)
        for before, after in zip(trace, remapped):
            assert before.branch_type == after.branch_type
            assert before.taken == after.taken
            assert (before.pc & 0xFFF) == (after.pc & 0xFFF)
            if before.is_branch:
                same_before = (before.pc >> PAGE_SHIFT) == (before.target >> PAGE_SHIFT)
                same_after = (after.pc >> PAGE_SHIFT) == (after.target >> PAGE_SHIFT)
                assert same_before == same_after

    def test_composer_scopes_shared_regions_per_workload(self):
        """Tenants share pages only with tenants mapping the same binary:
        a heterogeneous preset must report zero cross-workload 'sharing',
        so its duplication counters never call unrelated code duplicated."""
        store = default_store()
        spec = ScenarioSpec(
            name="hetero_vs_homo",
            tenants=(
                TenantSpec("a1", "server_001"),
                TenantSpec("b1", "client_001"),
                TenantSpec("a2", "server_001"),
            ),
            quantum_instructions=512,
            shared_fraction=0.5,
        )
        traces = {w: store.get(w, 2_048) for w in set(spec.workloads)}
        composer = TraceComposer(spec, traces)
        shared_sets = []
        for index in range(3):
            pages = tenant_code_pages(composer.tenant_trace(index))
            shared_sets.append({p for p in pages if p < PRIVATE_BASE_PAGE})
        # Same binary (a1/a2): identical shared mapping.  Different binary
        # (b1): a disjoint shared slot.
        assert shared_sets[0] == shared_sets[2]
        assert shared_sets[0] and shared_sets[1]
        assert shared_sets[0].isdisjoint(shared_sets[1])
        # The composer's own accounting agrees with the raw page walk.
        stats = composer.code_page_stats()
        assert set(stats) == {"a1", "b1", "a2"}
        assert stats["a1"] == stats["a2"]
        assert stats["a1"]["shared_pages"] == len(shared_sets[0])
        assert stats["b1"]["shared_pages"] == len(shared_sets[1])
        for tenant_stats in stats.values():
            assert tenant_stats["pages"] == (
                tenant_stats["shared_pages"] + tenant_stats["private_pages"]
            )

    def test_code_page_stats_reports_no_sharing_without_remap(self):
        store = default_store()
        spec = ScenarioSpec(
            name="no_remap_stats",
            tenants=(TenantSpec("a", "server_001"), TenantSpec("b", "server_001")),
            quantum_instructions=512,
            shared_fraction=0.0,
        )
        traces = {w: store.get(w, 2_048) for w in set(spec.workloads)}
        stats = TraceComposer(spec, traces).code_page_stats()
        for tenant_stats in stats.values():
            assert tenant_stats["shared_pages"] == 0
            assert tenant_stats["pages"] == tenant_stats["private_pages"] > 0

    def test_remap_is_deterministic(self):
        store = default_store()
        trace = store.get("server_001", 2_048)
        first = remap_tenant_trace(trace, 1, 0.4)
        second = remap_tenant_trace(trace, 1, 0.4)
        assert [i.pc for i in first] == [i.pc for i in second]
        assert [i.target for i in first] == [i.target for i in second]


def _reference_remap(trace, tenant_index, fraction, slot):
    """Reference remap: per-tenant pages, a page map and a fresh record per position."""
    pages = tenant_code_pages(trace)
    shared_count = shared_page_split(len(pages), fraction)
    shared_base = SHARED_BASE_PAGE + slot * SHARED_SLOT_STRIDE_PAGES
    private_base = PRIVATE_BASE_PAGE + tenant_index * PRIVATE_TENANT_STRIDE_PAGES
    page_map = {
        page: shared_base + rank if rank < shared_count else private_base + rank - shared_count
        for rank, page in enumerate(pages)
    }

    def remap(address):
        return (page_map[address >> PAGE_SHIFT] << PAGE_SHIFT) | (address & _PAGE_MASK)

    records = []
    for instruction in trace:
        pc = remap(instruction.pc)
        size = remap(instruction.fall_through) - pc
        if instruction.is_branch:
            records.append(Instruction(pc=pc, size=size, branch_type=instruction.branch_type,
                                       taken=instruction.taken, target=remap(instruction.target)))
        else:
            records.append(Instruction(pc=pc, size=size))
    return records


class TestRemapEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        workload=st.sampled_from(_WORKLOADS),
        tenant_index=st.integers(min_value=0, max_value=64),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        slot=st.integers(min_value=0, max_value=8),
    )
    def test_remap_matches_the_reference_field_by_field(
        self, workload, tenant_index, fraction, slot
    ):
        trace = default_store().get(workload, 2_048)
        remapped = remap_tenant_trace(trace, tenant_index, fraction, shared_slot=slot)
        expected = _reference_remap(trace, tenant_index, fraction, slot)
        assert len(remapped) == len(expected)
        for position, (actual, reference) in enumerate(zip(remapped, expected)):
            assert (actual.pc, actual.size, actual.branch_type, actual.taken, actual.target) == (
                reference.pc, reference.size, reference.branch_type, reference.taken,
                reference.target,
            ), position
        # The page list cached on the source is the per-tenant derivation.
        assert trace._code_pages == tenant_code_pages(trace)
        # One remapped object per distinct source object.
        image = {}
        for source, record in zip(trace, remapped):
            assert image.setdefault(id(source), record) is record


class TestRemapScheduleProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        fraction=st.floats(min_value=0.01, max_value=1.0),
        quantum=st.integers(min_value=32, max_value=512),
        total=st.integers(min_value=1, max_value=3_000),
    )
    def test_schedule_shares_unchanged_by_remapping(self, fraction, quantum, total):
        store = default_store()
        plain = _spec(0.0, tenant_count=2, quantum=quantum)
        shared = _spec(fraction, tenant_count=2, quantum=quantum)
        traces = {w: store.get(w, 2_048) for w in set(plain.workloads)}
        def shares(spec):
            counts: dict[str, int] = {}
            asids = []
            for asid, tenant, _ in TraceComposer(spec, traces).stream(total):
                counts[tenant] = counts.get(tenant, 0) + 1
                asids.append(asid)
            return counts, asids
        plain_counts, plain_asids = shares(plain)
        shared_counts, shared_asids = shares(shared)
        assert plain_counts == shared_counts
        assert plain_asids == shared_asids

    def test_remapped_cells_identical_across_worker_counts(self):
        spec = shared_variant(get_scenario("shared_services"), 0.75)
        jobs = [
            ScenarioJob(
                scenario=spec.name,
                instructions=TINY.instructions,
                warmup_instructions=TINY.warmup_instructions,
                style=style,
                asid_mode=ASIDMode.TAGGED,
                budget_kib=14.5,
                spec=spec,
            )
            for style in (BTBStyle.PDEDE, BTBStyle.REDUCED)
        ]
        serial = ExperimentEngine(workers=1).run_jobs(jobs)
        parallel = ExperimentEngine(workers=2).run_jobs(jobs)
        for left, right in zip(serial, parallel):
            assert left.result == right.result
            assert left.scenario.duplication == right.scenario.duplication
            assert left.scenario == right.scenario


class TestSpecValidation:
    @pytest.mark.parametrize("fraction", [-0.1, 1.5, True, "half", None])
    def test_bad_shared_fractions_rejected_naming_the_field(self, fraction):
        with pytest.raises(ConfigurationError, match="shared_fraction"):
            ScenarioSpec(
                name="bad_fraction",
                tenants=(TenantSpec("t0", "server_001"),),
                shared_fraction=fraction,
            )

    def test_shared_fraction_normalized_to_float(self):
        assert _spec(0).shared_fraction == 0.0
        assert isinstance(_spec(0).shared_fraction, float)
        assert _spec(1).shared_fraction == 1.0

    def test_shared_fraction_in_config_dict_and_hash(self):
        base = _spec(0.0)
        shared = _spec(0.5)
        assert base.config_dict()["shared_fraction"] == 0.0
        assert shared.config_dict()["shared_fraction"] == 0.5

    def test_shared_variant_reuses_spec_at_its_own_fraction(self):
        """The preset's own coordinate must stay cache-identical."""
        spec = get_scenario("shared_services")
        assert shared_variant(spec, spec.shared_fraction) is spec
        other = shared_variant(spec, 0.25)
        assert other.name == "shared_services@s0.25"
        assert other.shared_fraction == 0.25
        with pytest.raises(ConfigurationError):
            shared_variant(spec, 1.5)


# -- the sweep driver ---------------------------------------------------------


def _tiny_sweep(engine, **overrides):
    settings_ = dict(
        preset="shared_services",
        fractions=(0.25, 0.5, 1.0),
        styles=(BTBStyle.PDEDE,),
        asid_modes=(ASIDMode.FLUSH, ASIDMode.TAGGED),
        engine=engine,
    )
    settings_.update(overrides)
    return shared_footprint.run(TINY, **settings_)


def _curves(result):
    return aggregate_curves(result["rows"])[("shared_fraction", "shared_services")]


class TestSharedFootprintSweep:
    def test_result_structure_and_duplication_monotonicity(self):
        result = _tiny_sweep(ExperimentEngine(workers=1))
        curves = _curves(result)
        assert set(curves) == {"PDede/flush", "PDede/tagged"}
        for points in curves.values():
            assert [point["axis_value"] for point in points] == [0.25, 0.5, 1.0]
            for point in points:
                for column in ("btb_mpki", "ipc", "context_switches",
                               "page_distinct", "page_tag_distinct", "page_duplicated"):
                    assert point[column] is not None, column
        tagged = curves["PDede/tagged"]
        duplicated = [point["page_duplicated"] for point in tagged]
        # Acceptance: more overlap, more duplicated page allocations -- and a
        # strict excess of tag-distinct over distinct as soon as code is shared.
        assert duplicated == sorted(duplicated)
        for point in tagged:
            assert point["page_tag_distinct"] > point["page_distinct"]
        # Flush never retags across tenants, so it never duplicates.
        assert all(point["page_duplicated"] == 0 for point in curves["PDede/flush"])

    def test_partitioned_curve_reports_secondary_partitions(self):
        result = _tiny_sweep(
            ExperimentEngine(workers=1), asid_modes=(ASIDMode.PARTITIONED,)
        )
        for point in _curves(result)["PDede/partitioned"]:
            secondary = point["secondary_partition_sets"]
            assert set(secondary) == {"page", "region"}
            assert set(secondary["page"]) == {"svc_a", "svc_b", "svc_c"}
            assert set(point["partition_sets"]) == {"svc_a", "svc_b", "svc_c"}

    def test_warm_cache_replays_sweep_with_zero_simulations(self, tmp_path):
        cold_engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        cold = _tiny_sweep(cold_engine)
        assert cold_engine.stats()["executed"] > 0
        warm_engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        warm = _tiny_sweep(warm_engine)
        assert warm_engine.stats()["executed"] == 0
        assert warm_engine.stats()["disk_hits"] > 0
        # Duplication and secondary partitions survive the disk round-trip.
        assert warm == cold

    def test_csv_rows_cover_aggregates_tenants_and_duplication(self, tmp_path):
        import csv

        result = _tiny_sweep(ExperimentEngine(workers=1))
        path = tmp_path / "shared.csv"
        write_csv(result, str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result["rows"])
        tenants = {row["tenant"] for row in rows}
        assert "(aggregate)" in tenants
        # At the tiny scale only the first two tenants ever get scheduled.
        assert {"svc_a", "svc_b"} <= tenants
        aggregates = [row for row in rows if row["tenant"] == "(aggregate)"]
        for structure in ("main", "page", "region"):
            assert all(row[f"{structure}_tag_distinct"] != "" for row in aggregates)
            assert all(row[f"{structure}_distinct"] != "" for row in aggregates)
        tenant_rows = [row for row in rows if row["tenant"] != "(aggregate)"]
        assert all(row["page_duplicated"] == "" for row in tenant_rows)

    def test_format_report_mentions_duplication(self):
        result = _tiny_sweep(ExperimentEngine(workers=1))
        report = shared_footprint.format_report(result)
        assert "Shared-footprint sweep" in report
        assert "page_duplicated" in report
        assert "PDede/tagged" in report


class TestResultSchema:
    """The engine's payload must round-trip every result field."""

    def test_rehydrated_result_equals_a_live_run(self):
        job = ScenarioJob(
            scenario="shared_services",
            instructions=4_000,
            warmup_instructions=1_000,
            style=BTBStyle.REDUCED,
            asid_mode=ASIDMode.PARTITIONED,
            budget_kib=14.5,
        )
        scenario = ExperimentEngine(workers=1).run_job(job).scenario
        live = execute_scenario(
            job.spec,
            style=job.style,
            asid_mode=job.asid_mode,
            budget_kib=job.budget_kib,
            instructions=job.instructions,
            warmup_instructions=job.warmup_instructions,
            fdip_enabled=job.fdip_enabled,
            cache_mode=job.cache_asid_mode,
        )
        assert scenario == live
        assert scenario.duplication is not None
        assert scenario.secondary_partition_sets is not None
        assert scenario.partition_sets is not None
        # Scenario-aware energy accounting: the BTB's access counters and
        # their Table V evaluation must ride along on every scenario cell.
        assert scenario.btb_access_counts, "BTB access counters missing"
        assert scenario.btb_access_counts["reads.total"] > 0
        assert scenario.energy is not None
        assert scenario.energy["total_energy_uj"] > 0
        assert set(scenario.energy["structures"]) >= {"main", "page"}

    def test_payload_round_trips_new_counters(self, tmp_path):
        job = ScenarioJob(
            scenario="shared_services",
            instructions=4_000,
            warmup_instructions=1_000,
            style=BTBStyle.PDEDE,
            asid_mode=ASIDMode.PARTITIONED,
            budget_kib=14.5,
        )
        first = ExperimentEngine(workers=1, cache_dir=tmp_path).run_job(job)
        second = ExperimentEngine(workers=1, cache_dir=tmp_path).run_job(job)
        assert second.scenario.duplication == first.scenario.duplication
        assert (
            second.scenario.secondary_partition_sets
            == first.scenario.secondary_partition_sets
        )
        assert second.scenario.btb_access_counts == first.scenario.btb_access_counts
        assert second.scenario.energy == first.scenario.energy
        assert second.scenario == first.scenario
