"""Soundness of every BTB organization's batch plan (numpy backend).

A batch plan marks ``guaranteed_miss`` positions that the batched engine
never probes: it only bumps their read/miss counters.  That shortcut is
exact only if (a) every marked position really misses when the chunk is
replayed live, installs included, (b) planning itself leaves the BTB's
architectural state -- entries, LRU order, secondary structures, counters --
untouched, and (c) the residency shadow the plans read stays equal to the
live ways through every install and invalidation.  These properties are
checked here directly, per organization, on a real trace with randomized
budgets, warmup lengths, chunk lengths, ASIDs and partitioning.
"""

from __future__ import annotations

import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.btb.storage import make_btb_for_budget
from repro.common.config import BTBStyle
from repro.traces.batch import HAVE_NUMPY, trace_arrays
from repro.traces.store import default_store

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not available")

ORGANIZATIONS = (
    BTBStyle.CONVENTIONAL,
    BTBStyle.REDUCED,
    BTBStyle.PDEDE,
    BTBStyle.BTBX,
    BTBStyle.IDEAL,
)
BUDGETS_KIB = (0.90625, 1.8125, 14.5)
TRACE_LENGTH = 8_000

#: Plan-owned bookkeeping (built and maintained for the batched backend);
#: everything else on a BTB is architectural state the plan must not touch.
_PLAN_OWNED = frozenset({"_shadow_valid", "_shadow_tags", "_set_gen"})


@lru_cache(maxsize=1)
def _trace():
    return default_store().get("server_001", TRACE_LENGTH)


def _state(btb):
    """A byte-exact snapshot of ``btb``'s architectural state."""
    state = {key: value for key, value in vars(btb).items() if key not in _PLAN_OWNED}
    companion = state.pop("companion", None)
    blob = pickle.dumps(state)
    return blob if companion is None else (blob, _state(companion))


def _assert_shadow_is_live(btb) -> None:
    """The residency shadow holds exactly the live ``(set, way, tag)`` triples."""
    import numpy as np

    if getattr(btb, "_shadow_tags", None) is None:  # not built yet, or no sets (ideal)
        return
    live = set(btb._resident_ways())
    shadow = {
        (int(index), int(way), int(btb._shadow_tags[index, way]))
        for index, way in zip(*np.nonzero(btb._shadow_valid))
    }
    assert shadow == live, f"{btb.name}: shadow {len(shadow)} vs live {len(live)} ways"


def _replay(btb, instructions) -> list:
    """The scalar BTB traffic of a slice: probe every PC, train taken branches."""
    hits = []
    for instruction in instructions:
        hits.append(btb.lookup(instruction.pc).hit)
        if instruction.is_branch and instruction.taken:
            btb.update(instruction)
    return hits


@settings(max_examples=40, deadline=None)
@given(
    style=st.sampled_from(ORGANIZATIONS),
    budget_kib=st.sampled_from(BUDGETS_KIB),
    split=st.integers(min_value=0, max_value=TRACE_LENGTH - 1),
    length=st.integers(min_value=1, max_value=3_000),
    warm_asid=st.sampled_from((0, 3)),
    plan_asid=st.sampled_from((0, 3)),
    partitioned=st.booleans(),
    early_shadow=st.booleans(),
)
def test_guaranteed_misses_miss_and_planning_is_side_effect_free(
    style, budget_kib, split, length, warm_asid, plan_asid, partitioned, early_shadow
):
    import numpy as np

    trace = _trace()
    btb = make_btb_for_budget(style, budget_kib, isa=trace.isa)
    if partitioned:
        btb.configure_partitions((1, 2))
    btb.set_active_asid(warm_asid)
    arrays = trace_arrays(trace)
    if early_shadow:
        # Plan once up front, so the warmup's installs and invalidations all
        # go through the shadow's write-through hooks.
        btb.batch_plan(arrays.pc[:1], arrays.pc[:0])
    _replay(btb, trace.instructions[:split])
    btb.set_active_asid(plan_asid)

    stop = min(split + length, TRACE_LENGTH)
    pcs = arrays.pc[split:stop]
    taken_branch_pcs = np.unique(pcs[arrays.is_branch[split:stop] & arrays.taken[split:stop]])
    before = _state(btb)
    plan = btb.batch_plan(pcs, taken_branch_pcs)
    assert _state(btb) == before, "building a batch plan changed the BTB's state"
    assert len(plan.guaranteed_miss) == stop - split

    hits = _replay(btb, trace.instructions[split:stop])
    false_misses = [
        position
        for position, (marked, hit) in enumerate(zip(plan.guaranteed_miss.tolist(), hits))
        if marked and hit
    ]
    assert not false_misses, (
        f"{style.value}: positions {false_misses[:5]} marked guaranteed misses but hit"
    )
    _assert_shadow_is_live(btb)
    if getattr(btb, "companion", None) is not None:
        _assert_shadow_is_live(btb.companion)


BOUNDED = ORGANIZATIONS[:-1]


@pytest.mark.parametrize("partitioned", (False, True), ids=("shared", "partitioned"))
@pytest.mark.parametrize("style", BOUNDED, ids=[style.value for style in BOUNDED])
def test_shadow_tracks_every_mutation(style, partitioned):
    """Write-through holds after every commit, across ASID switches and a flush.

    The smallest budget keeps evictions, Page-/Region-BTB evictions and the
    Main-BTB pointer invalidations they cause frequent; the shadow is
    compared with the live ways after each taken-branch update, so a single
    missed write-through is caught where it happens.
    """
    trace = _trace()
    btb = make_btb_for_budget(style, BUDGETS_KIB[0], isa=trace.isa)
    if partitioned:
        btb.configure_partitions((1, 2))
    arrays = trace_arrays(trace)
    btb.batch_plan(arrays.pc[:1], arrays.pc[:0])
    for position, instruction in enumerate(trace.instructions):
        if position % 1_500 == 0:
            btb.set_active_asid((position // 1_500) % 3)
        if position == TRACE_LENGTH // 2:
            btb.invalidate_all()
            _assert_shadow_is_live(btb)
        btb.lookup(instruction.pc)
        if instruction.is_branch and instruction.taken:
            btb.update(instruction)
            _assert_shadow_is_live(btb)
            if getattr(btb, "companion", None) is not None:
                _assert_shadow_is_live(btb.companion)


@pytest.mark.parametrize("style", ORGANIZATIONS, ids=[style.value for style in ORGANIZATIONS])
def test_every_organization_plans(style):
    """No organization falls back to an unplanned walk: a plan always exists."""
    import numpy as np

    trace = _trace()
    btb = make_btb_for_budget(style, BUDGETS_KIB[0], isa=trace.isa)
    plan = btb.batch_plan(np.zeros(4, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
    assert plan.guaranteed_miss.tolist() == [True] * 4
