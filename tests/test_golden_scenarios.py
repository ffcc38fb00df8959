"""Golden-result regression suite for the scenario subsystem.

Pins **bit-exact** aggregate and per-tenant results for every scenario preset
x {flush, tagged, partitioned} x {Conv-BTB, BTB-X} at a tiny fixed scale, so
any change that shifts numbers -- composer scheduling order, ASID tagging or
coloring, partition apportionment, trace generation, timing attribution --
fails *loudly* here instead of silently drifting the paper's consolidated
curves.  The traces behind the fixture are not committed files: workload
generation is seeded and deterministic, so ``(workload, instructions)`` fully
reproduces them on any machine and Python version.

When a change is *intentionally* result-altering, regenerate the fixture and
commit it together with the change (see TESTING.md)::

    PYTHONPATH=src python tests/test_golden_scenarios.py regenerate

The suite is part of the default tier-1 invocation (``pytest -x -q``); the
``golden`` marker only exists so it can be selected or skipped explicitly
(``-m golden`` / ``-m "not golden"``).
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.common.config import ASIDMode, BTBStyle, ISAStyle
from repro.scenarios.generate import ScenarioRecipe, generate_scenario
from repro.scenarios.presets import PRESET_NAMES
from repro.scenarios.run import execute_scenario

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "scenario_golden.json"

#: The pinned grid.  Deliberately small but complete: every preset, every
#: ASID mode, the paper's baseline and its proposal.
GOLDEN_STYLES = (BTBStyle.CONVENTIONAL, BTBStyle.BTBX)
GOLDEN_ASID_MODES = (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED)
GOLDEN_INSTRUCTIONS = 8_000
GOLDEN_WARMUP = 2_000
GOLDEN_BUDGET_KIB = 14.5

#: Extra cells pinning the ASID-tagged/partitionable *secondary* structures:
#: PDede's Page-/Region-BTB and R-BTB's Page-BTB only matter under retention
#: modes, and the shared-footprint preset is what makes their duplication
#: behaviour visible.
SECONDARY_STYLES = (BTBStyle.PDEDE, BTBStyle.REDUCED)
SECONDARY_PRESETS = ("consolidated_server", "shared_services")
SECONDARY_ASID_MODES = (ASIDMode.TAGGED, ASIDMode.PARTITIONED)

#: Extra cells pinning the ASID-aware *cache hierarchy*: per-tenant L1-I and
#: L2 MPKI under flush/tagged/partitioned cache modes (the BTB itself runs in
#: tagged retention so only the hierarchy varies across these cells).
CACHE_PRESETS = ("consolidated_server", "shared_services")
CACHE_CELL_STYLES = (BTBStyle.BTBX,)
CACHE_CELL_MODES = (ASIDMode.FLUSH, ASIDMode.TAGGED, ASIDMode.PARTITIONED)
#: Two baseline-organization cells keep the Conv-BTB path covered without
#: doubling the grid.
CACHE_EXTRA_CELLS = (
    ("consolidated_server", BTBStyle.CONVENTIONAL, ASIDMode.FLUSH),
    ("shared_services", BTBStyle.CONVENTIONAL, ASIDMode.TAGGED),
)

#: Generated-scenario cells: seeded recipes expanded at collection time (a
#: spec is a pure function of its recipe), pinning the generator's draw
#: sequence and the ``gen_``-workload name resolution path bit-exactly.
GENERATED_RECIPES = (
    ScenarioRecipe(
        name="gen_mix", tenants=6, seed=101, workload_population=3,
        quantum_instructions=1_024,
    ),
    ScenarioRecipe(
        name="gen_skew", tenants=5, seed=202, workload_population=3,
        weight_skew=1.5, max_weight=4, quantum_instructions=1_024,
        policy="weighted",
    ),
    ScenarioRecipe(
        name="gen_x86", tenants=4, seed=303, workload_population=2,
        isa=ISAStyle.X86, quantum_instructions=1_024,
    ),
)
GENERATED_SPECS = {recipe.name: generate_scenario(recipe) for recipe in GENERATED_RECIPES}
GENERATED_CELLS = (
    ("gen_mix", BTBStyle.BTBX, ASIDMode.TAGGED),
    ("gen_mix", BTBStyle.BTBX, ASIDMode.PARTITIONED),
    ("gen_skew", BTBStyle.CONVENTIONAL, ASIDMode.PARTITIONED),
    ("gen_x86", BTBStyle.BTBX, ASIDMode.FLUSH),
)

#: Aggregate counters pinned bit-exactly (ints and one exact float).
AGGREGATE_FIELDS = (
    "instructions",
    "btb_misses_taken",
    "branches",
    "taken_branches",
    "execute_flushes",
    "decode_resteers",
    "direction_mispredictions",
    "target_mispredictions",
    "l1i_misses",
    "cycles",
)

#: Per-tenant counters pinned bit-exactly.
TENANT_FIELDS = ("instructions", "btb_misses_taken", "branches", "cycles")


def golden_cells() -> list[tuple[str, BTBStyle, ASIDMode]]:
    """The (preset, style, asid_mode) grid the fixture must cover exactly."""
    cells = [
        (preset, style, mode)
        for preset in PRESET_NAMES
        for style in GOLDEN_STYLES
        for mode in GOLDEN_ASID_MODES
    ]
    cells += [
        (preset, style, mode)
        for preset in SECONDARY_PRESETS
        for style in SECONDARY_STYLES
        for mode in SECONDARY_ASID_MODES
    ]
    cells += list(GENERATED_CELLS)
    return cells


def resolve_golden_scenario(preset: str):
    """Golden cells address presets by name; generated cells resolve here."""
    return GENERATED_SPECS.get(preset, preset)


def cache_golden_cells() -> list[tuple[str, BTBStyle, ASIDMode]]:
    """The (preset, style, cache_mode) grid of the hierarchy cells."""
    cells = [
        (preset, style, cache_mode)
        for preset in CACHE_PRESETS
        for style in CACHE_CELL_STYLES
        for cache_mode in CACHE_CELL_MODES
    ]
    cells += list(CACHE_EXTRA_CELLS)
    return cells


def cell_key(preset: str, style: BTBStyle, mode: ASIDMode) -> str:
    return f"{preset}/{style.value}/{mode.value}"


def cache_cell_key(preset: str, style: BTBStyle, cache_mode: ASIDMode) -> str:
    return f"{preset}/{style.value}/cache-{cache_mode.value}"


def compute_cell(
    preset: str, style: BTBStyle, mode: ASIDMode, backend: str | None = None
) -> dict:
    """Simulate one golden cell and distill it to the pinned counters.

    Secondary-structure cells (PDede, R-BTB) additionally pin the duplication
    counters and the secondary partition maps -- the behaviour those cells
    exist to lock down.  The legacy Conv-BTB/BTB-X cells keep their original
    schema so the pre-existing fixture entries stay byte-identical.

    ``backend`` picks the execution engine (None resolves like the library
    default); the backend-differential suite replays the whole grid with
    ``backend="numpy"`` against the same fixture.
    """
    result = execute_scenario(
        resolve_golden_scenario(preset),
        style=style,
        asid_mode=mode,
        budget_kib=GOLDEN_BUDGET_KIB,
        instructions=GOLDEN_INSTRUCTIONS,
        warmup_instructions=GOLDEN_WARMUP,
        backend=backend,
    )
    return distill_cell(result, style)


def distill_cell(result, style: BTBStyle) -> dict:
    """Distill a ScenarioResult to the pinned counters of a main-grid cell."""
    cell = {
        "context_switches": result.context_switches,
        "partition_sets": result.partition_sets,
        "aggregate": {name: getattr(result.aggregate, name) for name in AGGREGATE_FIELDS},
        "aggregate_btb_mpki": result.aggregate.btb_mpki,
        "per_tenant": {
            tenant: {name: getattr(tenant_result, name) for name in TENANT_FIELDS}
            for tenant, tenant_result in result.per_tenant.items()
        },
    }
    if style in SECONDARY_STYLES:
        cell["secondary_partition_sets"] = result.secondary_partition_sets
        cell["duplication"] = result.duplication
    return cell


def compute_cache_cell(
    preset: str, style: BTBStyle, cache_mode: ASIDMode, backend: str | None = None
) -> dict:
    """Simulate one hierarchy cell and distill it to the pinned counters.

    These cells exist to lock down the ASID-aware memory hierarchy, so they
    pin what the main grid does not: per-tenant L1-I and L2 miss counts and
    MPKI, the reported cache mode and the per-level partition maps.
    """
    result = execute_scenario(
        preset,
        style=style,
        asid_mode=ASIDMode.TAGGED,
        budget_kib=GOLDEN_BUDGET_KIB,
        instructions=GOLDEN_INSTRUCTIONS,
        warmup_instructions=GOLDEN_WARMUP,
        cache_mode=cache_mode,
        backend=backend,
    )
    return distill_cache_cell(result)


def distill_cache_cell(result) -> dict:
    """Distill a ScenarioResult to the pinned counters of a hierarchy cell."""
    return {
        "cache_mode": result.cache_mode,
        "context_switches": result.context_switches,
        "cache_partition_sets": result.cache_partition_sets,
        "aggregate": {
            "instructions": result.aggregate.instructions,
            "l1i_misses": result.aggregate.l1i_misses,
            "l2_accesses": result.aggregate.l2_accesses,
            "l2_misses": result.aggregate.l2_misses,
            "cycles": result.aggregate.cycles,
        },
        "aggregate_l1i_mpki": result.aggregate.l1i_mpki,
        "aggregate_l2_mpki": result.aggregate.l2_mpki,
        "per_tenant": {
            tenant: {
                "instructions": tenant_result.instructions,
                "l1i_misses": tenant_result.l1i_misses,
                "l2_misses": tenant_result.l2_misses,
                "l1i_mpki": tenant_result.l1i_mpki,
                "l2_mpki": tenant_result.l2_mpki,
            }
            for tenant, tenant_result in result.per_tenant.items()
        },
    }


def load_fixture() -> dict:
    if not FIXTURE_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(
            f"golden fixture {FIXTURE_PATH} is missing; regenerate it with "
            "'PYTHONPATH=src python tests/test_golden_scenarios.py regenerate'"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fixture() -> dict:
    return load_fixture()


@pytest.mark.golden
def test_fixture_matches_the_current_grid(fixture):
    """Adding/removing presets, styles or modes must force a regeneration."""
    expected = {cell_key(*cell) for cell in golden_cells()}
    expected |= {cache_cell_key(*cell) for cell in cache_golden_cells()}
    assert set(fixture["cells"]) == expected, (
        "golden fixture covers a different grid than the code; regenerate it "
        "(see TESTING.md) and review the diff"
    )
    assert fixture["instructions"] == GOLDEN_INSTRUCTIONS
    assert fixture["warmup_instructions"] == GOLDEN_WARMUP
    assert fixture["budget_kib"] == GOLDEN_BUDGET_KIB


@pytest.mark.golden
@pytest.mark.parametrize(
    "preset,style,mode",
    golden_cells(),
    ids=[cell_key(*cell) for cell in golden_cells()],
)
def test_golden_cell_is_bit_exact(fixture, preset, style, mode):
    pinned = fixture["cells"][cell_key(preset, style, mode)]
    actual = compute_cell(preset, style, mode)
    assert actual == pinned, (
        f"scenario results drifted for {cell_key(preset, style, mode)}; if the "
        "change is intentional, regenerate tests/golden/scenario_golden.json "
        "(see TESTING.md) and commit the new fixture with your change"
    )


@pytest.mark.golden
@pytest.mark.parametrize(
    "preset,style,cache_mode",
    cache_golden_cells(),
    ids=[cache_cell_key(*cell) for cell in cache_golden_cells()],
)
def test_cache_golden_cell_is_bit_exact(fixture, preset, style, cache_mode):
    pinned = fixture["cells"][cache_cell_key(preset, style, cache_mode)]
    actual = compute_cache_cell(preset, style, cache_mode)
    assert actual == pinned, (
        f"hierarchy results drifted for {cache_cell_key(preset, style, cache_mode)}; "
        "if the change is intentional, regenerate tests/golden/scenario_golden.json "
        "(see TESTING.md) and commit the new fixture with your change"
    )


def regenerate() -> None:  # pragma: no cover - developer tool
    """Recompute every golden cell and rewrite the fixture."""
    cells = {}
    for preset, style, mode in golden_cells():
        key = cell_key(preset, style, mode)
        print(f"  {key} ...", flush=True)
        cells[key] = compute_cell(preset, style, mode)
    for preset, style, cache_mode in cache_golden_cells():
        key = cache_cell_key(preset, style, cache_mode)
        print(f"  {key} ...", flush=True)
        cells[key] = compute_cache_cell(preset, style, cache_mode)
    fixture = {
        "format": 1,
        "instructions": GOLDEN_INSTRUCTIONS,
        "warmup_instructions": GOLDEN_WARMUP,
        "budget_kib": GOLDEN_BUDGET_KIB,
        "cells": cells,
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(cells)} cells to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
