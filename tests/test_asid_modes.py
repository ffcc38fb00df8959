"""Differential ASID-mode test matrix.

Three families of differential guarantees, checked for every scenario preset
and every BTB organization rather than against pinned numbers (the golden
suite owns bit-exactness):

* **solo invariance** -- a one-tenant scenario runs entirely in ASID 0, so
  ``flush``, ``tagged`` and ``partitioned`` retention must produce bit-exact
  identical results for every preset x organization (there is nothing to
  flush, tag or partition away from a lone tenant);
* **remap-off invariance** -- ``shared_fraction == 0.0`` must reproduce the
  historical composer output bit-exactly (no remapped traces, identical
  streams), which is what keeps the legacy golden cells byte-identical;
* **duplication floor** -- full overlap under ``tagged`` never *lowers*
  tag-distinct allocations below the disjoint (``shared_fraction == 0``)
  case: per-tenant footprints are remapped bijectively, so the per-ASID
  working sets -- and with them the tag-distinct counts of the reference-time
  duplication counters -- are invariant, while the distinct counts shrink as
  sharing grows.
"""

from __future__ import annotations

import pytest

from repro.common.config import ASIDMode, BTBStyle
from repro.experiments.runner import clear_trace_cache
from repro.scenarios.presets import PRESET_NAMES, get_scenario
from repro.scenarios.run import execute_scenario
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.traces.store import default_store


@pytest.fixture(autouse=True)
def _bounded_traces():
    yield
    clear_trace_cache()


#: Every BTB organization the matrix covers.
MATRIX_STYLES = (
    BTBStyle.CONVENTIONAL,
    BTBStyle.REDUCED,
    BTBStyle.PDEDE,
    BTBStyle.BTBX,
    BTBStyle.IDEAL,
)

MATRIX_MODES = (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED)

#: Small but non-trivial: enough instructions for warmup plus several
#: scheduling turns of every preset.
INSTRUCTIONS = 3_000
WARMUP = 600


def solo_variant(preset: str) -> ScenarioSpec:
    """The preset reduced to its first tenant (the solo anchor)."""
    spec = get_scenario(preset)
    first = spec.tenants[0]
    return ScenarioSpec(
        name=f"{spec.name}@solo",
        tenants=(TenantSpec(first.name, first.workload, first.weight),),
        quantum_instructions=spec.quantum_instructions,
        policy=spec.policy,
        switch_semantics=spec.switch_semantics,
        shared_fraction=spec.shared_fraction,
    )


def result_fingerprint(result) -> dict:
    """Everything comparable about a scenario result across retention modes."""
    return {
        "context_switches": result.context_switches,
        "aggregate": result.aggregate,
        "per_tenant": result.per_tenant,
        "duplication": result.duplication,
    }


class TestSoloInvariance:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("style", MATRIX_STYLES, ids=lambda s: s.value)
    def test_solo_tenants_bit_exact_across_all_asid_modes(self, preset, style):
        """A lone tenant must be indistinguishable across retention modes.

        Warm presets keep ASID 0 for the whole run, so all three modes have
        literally nothing to flush, tag or partition: every result is
        bit-exact.  Cold presets mint a fresh ASID per scheduling turn even
        solo -- flushing then legitimately differs from retention -- but
        ``tagged`` and ``partitioned`` must still agree bit-exactly (a single
        tenant's partition is the whole structure).
        """
        spec = solo_variant(preset)
        cold = spec.switch_semantics == "cold"
        fingerprints = {}
        switches = {}
        for mode in MATRIX_MODES:
            result = execute_scenario(
                spec,
                style=style,
                asid_mode=mode,
                instructions=INSTRUCTIONS,
                warmup_instructions=WARMUP,
            )
            if not cold:
                assert result.context_switches == 0
            switches[mode] = result.context_switches
            fingerprints[mode] = result_fingerprint(result)
        assert len(set(switches.values())) == 1
        assert fingerprints[ASIDMode.PARTITIONED] == fingerprints[ASIDMode.TAGGED], (
            f"{preset}/{style.value}: solo partitioned diverged from tagged"
        )
        if not cold:
            assert fingerprints[ASIDMode.TAGGED] == fingerprints[ASIDMode.FLUSH], (
                f"{preset}/{style.value}: solo tagged diverged from flush"
            )


class TestRemapOffInvariance:
    def test_zero_shared_fraction_reproduces_legacy_composer_stream(self):
        """An explicit ``shared_fraction=0.0`` spec must stream the raw input
        traces exactly as the pre-shared-footprint composer did: same tenant
        schedule, same ASIDs, same instruction objects (no remapped copies)."""
        from repro.scenarios.compose import TraceComposer

        spec = ScenarioSpec(
            name="legacy_pair",
            tenants=(TenantSpec("a", "server_001"), TenantSpec("b", "client_001")),
            quantum_instructions=512,
            shared_fraction=0.0,
        )
        store = default_store()
        traces = {w: store.get(w, 4_000) for w in set(spec.workloads)}
        composer = TraceComposer(spec, traces)
        # No remapping: tenants replay the *identical* trace objects.
        assert composer.tenant_trace(0) is traces["server_001"]
        assert composer.tenant_trace(1) is traces["client_001"]

        # And the schedule is the plain alternating walk of old: each tenant
        # resumes where it stopped, wrapping at the end of its trace.
        tenant_traces = {"a": traces["server_001"], "b": traces["client_001"]}
        positions = {"a": 0, "b": 0}
        expected = []
        order = ["a", "b"]
        turn = 0
        remaining = 3_000
        while remaining > 0:
            tenant = order[turn % 2]
            count = min(512, remaining)
            trace = tenant_traces[tenant]
            for _ in range(count):
                expected.append((turn % 2, tenant, trace[positions[tenant] % len(trace)]))
                positions[tenant] += 1
            remaining -= count
            turn += 1
        assert list(composer.stream(3_000)) == expected

    @pytest.mark.parametrize("style", (BTBStyle.BTBX, BTBStyle.PDEDE), ids=lambda s: s.value)
    def test_zero_shared_fraction_simulates_identically_to_default_spec(self, style):
        base = get_scenario("consolidated_server")
        assert base.shared_fraction == 0.0
        explicit = ScenarioSpec(
            name=base.name,
            tenants=base.tenants,
            quantum_instructions=base.quantum_instructions,
            policy=base.policy,
            switch_semantics=base.switch_semantics,
            shared_fraction=0.0,
        )
        left = execute_scenario(
            base, style=style, asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        right = execute_scenario(
            explicit, style=style, asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS, warmup_instructions=WARMUP,
        )
        assert result_fingerprint(left) == result_fingerprint(right)


#: Cache hierarchy context-switch modes (``None`` = the legacy shared,
#: untagged hierarchy that ignores switches entirely).
CACHE_MATRIX_MODES = (None, ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED)


class TestCacheModeInvariance:
    """The cache-mode counterpart of the BTB matrix: solo runs must not be
    able to tell the hierarchy modes apart, and retention must never *add*
    instruction-supply misses over flushing."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_solo_tenants_bit_exact_across_cache_modes(self, preset):
        """A lone tenant must be indistinguishable across hierarchy modes.

        Warm presets keep ASID 0 for the whole run, so all three cache modes
        *and* the legacy hierarchy have literally nothing to flush, tag or
        partition: every result is bit-exact (tagged == legacy is the
        single-ASID acceptance criterion).  Cold presets mint a fresh ASID
        per scheduling turn even solo -- flushing and legacy sharing then
        legitimately differ from tagging -- but ``tagged`` and
        ``partitioned`` must still agree bit-exactly (a single tenant's
        partition is the whole hierarchy).
        """
        spec = solo_variant(preset)
        cold = spec.switch_semantics == "cold"
        fingerprints = {}
        for cache_mode in CACHE_MATRIX_MODES:
            result = execute_scenario(
                spec,
                style=BTBStyle.BTBX,
                asid_mode=ASIDMode.TAGGED,
                instructions=INSTRUCTIONS,
                warmup_instructions=WARMUP,
                cache_mode=cache_mode,
            )
            fingerprints[cache_mode] = result_fingerprint(result)
        assert fingerprints[ASIDMode.PARTITIONED] == fingerprints[ASIDMode.TAGGED], (
            f"{preset}: solo partitioned hierarchy diverged from tagged"
        )
        if not cold:
            assert all(fp == fingerprints[None] for fp in fingerprints.values()), (
                f"{preset}: solo cache modes diverged from the legacy hierarchy"
            )

    def test_tagged_equals_legacy_shared_hierarchy_with_single_asid(self):
        """Acceptance: with one ASID, the tagged (PIPT-style) hierarchy is
        bit-exactly the legacy shared one -- tagging with the neutral color
        is the identity, so the L1-I/L2 numbers cannot move."""
        result_legacy = execute_scenario(
            "solo_baseline",
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
            cache_mode=None,
        )
        result_tagged = execute_scenario(
            "solo_baseline",
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
            cache_mode=ASIDMode.TAGGED,
        )
        assert result_tagged.cache_mode == "tagged"
        assert result_legacy.cache_mode is None
        assert result_fingerprint(result_tagged) == result_fingerprint(result_legacy)

    @pytest.mark.parametrize("preset", ("consolidated_server", "shared_services"))
    def test_flush_never_beats_retention_on_l1i_misses(self, preset):
        """Flushing every level on every switch can only lose instruction
        supply relative to tagged retention: the tagged hierarchy sees the
        same per-tenant access streams with strictly more lines surviving."""
        misses = {}
        for cache_mode in (ASIDMode.FLUSH, ASIDMode.TAGGED):
            result = execute_scenario(
                preset,
                style=BTBStyle.BTBX,
                asid_mode=ASIDMode.TAGGED,
                instructions=8_000,
                warmup_instructions=2_000,
                cache_mode=cache_mode,
            )
            misses[cache_mode] = result.aggregate.l1i_misses
        assert misses[ASIDMode.FLUSH] >= misses[ASIDMode.TAGGED], misses

    def test_partitioned_hierarchy_reports_per_level_slices(self):
        result = execute_scenario(
            "noisy_neighbor",
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
            cache_mode=ASIDMode.PARTITIONED,
        )
        assert result.cache_partition_sets is not None
        assert set(result.cache_partition_sets) == {"l1i", "l1d", "l2", "llc"}
        spec = get_scenario("noisy_neighbor")
        weights = dict(zip(spec.tenant_names, spec.partition_weights))
        for level, slices in result.cache_partition_sets.items():
            assert set(slices) == set(spec.tenant_names)
            # Weight-proportional: the heavy tenant gets the biggest slice.
            assert slices["noisy"] == max(slices.values()), (level, slices)
        # Non-partitioned modes report nothing.
        tagged = execute_scenario(
            "noisy_neighbor",
            style=BTBStyle.BTBX,
            asid_mode=ASIDMode.TAGGED,
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
            cache_mode=ASIDMode.TAGGED,
        )
        assert tagged.cache_partition_sets is None


class TestDuplicationFloor:
    """Full overlap can only concentrate the footprint, never shrink the
    per-ASID working sets the tagged structures must provide for."""

    def _pair_spec(self, fraction: float) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"dup_pair@{fraction:g}",
            tenants=(TenantSpec("left", "server_009"), TenantSpec("right", "server_009")),
            quantum_instructions=1_024,
            shared_fraction=fraction,
        )

    #: Structures for which the floor is exact: the remap is a per-tenant
    #: bijection on branch PCs and on target pages, so per-ASID working sets
    #: -- the tag-distinct counts -- cannot shrink under full overlap.  The
    #: Region-BTB aggregates pages into 256 MB regions (compaction merges
    #: regions, legitimately shrinking per-tenant region counts) and BTB-X
    #: splits branches between main and companion by offset width (which the
    #: remap changes), so those structures only get the internal-consistency
    #: checks.
    FLOOR_STRUCTURES = {
        BTBStyle.CONVENTIONAL: ("main",),
        BTBStyle.REDUCED: ("main", "page"),
        BTBStyle.PDEDE: ("main", "page"),
        BTBStyle.BTBX: (),
    }

    @pytest.mark.parametrize(
        "style",
        (BTBStyle.CONVENTIONAL, BTBStyle.REDUCED, BTBStyle.PDEDE, BTBStyle.BTBX),
        ids=lambda s: s.value,
    )
    def test_full_overlap_never_lowers_tag_distinct_below_disjoint(self, style):
        results = {
            fraction: execute_scenario(
                self._pair_spec(fraction),
                style=style,
                asid_mode=ASIDMode.TAGGED,
                instructions=8_000,
                warmup_instructions=2_000,
            )
            for fraction in (0.0, 1.0)
        }
        disjoint = results[0.0].duplication
        overlapped = results[1.0].duplication
        for structure in self.FLOOR_STRUCTURES[style]:
            assert overlapped[structure]["tag_distinct"] >= disjoint[structure]["tag_distinct"], (
                f"{style.value}/{structure}: full overlap lowered tag-distinct "
                f"allocations {overlapped[structure]} below disjoint {disjoint[structure]}"
            )
        for counters in overlapped.values():
            # Tagging must store shared content once per address space.
            assert counters["tag_distinct"] >= counters["distinct"]
            assert counters["duplicated"] == (
                counters["tag_distinct"] - counters["distinct"]
            )

    @pytest.mark.parametrize("style", (BTBStyle.PDEDE, BTBStyle.REDUCED), ids=lambda s: s.value)
    def test_page_duplication_strictly_positive_once_shared(self, style):
        """Acceptance: tag-distinct Page-BTB allocations strictly exceed the
        distinct branch pages as soon as the tenants actually share pages."""
        result = execute_scenario(
            self._pair_spec(0.5),
            style=style,
            asid_mode=ASIDMode.TAGGED,
            instructions=8_000,
            warmup_instructions=2_000,
        )
        page = result.duplication["page"]
        assert page["tag_distinct"] > page["distinct"]
        assert page["duplicated"] > 0
