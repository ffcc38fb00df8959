"""The computed-key, indexed BTB probe against a from-scratch reference.

Every set-associative organization probes in one call (``lookup``) with a
key computed inline from cached ASID state -- the key
``SetAssociativeBTB._locate`` gives its updates; BTB-X derives BTB-XC's key
from its own -- and one read of a resident-tag index (``_resident``), and
derives its miss counter from reads and hits.  Here each organization runs
in lockstep with a *reference* instance of the same class whose location is
recomputed from scratch on every call (the ASID-colored PC folded down to a
partial tag by the generic fold), whose lookups go through
``lookup_prelocated`` at that key, and whose probe scans the set's ways.  Budgets are tiny, so LRU evictions, Page-/Region-BTB evictions
with their pointer invalidations, BTB-X/PDede reallocations and BTB-XC
conflicts all happen; lookups, taken-branch updates, tagged ASID switches,
partition-map changes and whole-structure invalidations interleave.

After every step the two instances must agree on the lookup result, every
counter, every entry and every LRU stamp; the resident-tag index must
equal ``{key: way}`` over the valid entries, with no tag twice in a set; and
no valid entry may point at an invalid Page- or Region-BTB slot.
No numpy: this is the scalar probe's own proof.

Lockstep runs two instances of the *same* class, so a change to code both
share (allocation, replacement, pointer tables) is invisible to it.  The
pinned half closes that gap: fixed ``random.Random`` operation streams per
organization, ISA and set count, each ending in :data:`PRESSURE`, are
digested over every lookup result and, after every operation, the public
counter and partition reports -- never the internal layout.  The digests
live in ``tests/golden/btb_org_digests.json``; a failure names the cell.
When a change is *intentionally* behaviour-altering, regenerate the fixture
and commit it with the change (see TESTING.md)::

    PYTHONPATH=src python tests/test_btb_probe_reference.py regenerate
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import random
import sys
import types
import weakref

import pytest

from hypothesis import given, settings, strategies as st

from repro.btb.base import _MISS_RESULT, PointerTable, fold12
from repro.btb.btbx import BTBX
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb.pdede import PDedeBTB
from repro.btb.rbtb import ReducedBTB
from repro.common.bitutils import fold_xor
from repro.common.config import ISAStyle
from repro.common.lru import LRUState
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.traces.trace import Trace

#: Tiny geometries: 2-3 main sets of 8 ways (3 sets index modulo), a 2-entry
#: R-BTB Page-BTB, a 2x2 PDede Page-BTB with a 2-entry Region-BTB, and a
#: BTB-XC of one entry per main set.
FACTORIES = {
    "conventional": lambda sets, isa: ConventionalBTB(8 * sets, isa=isa),
    "rbtb": lambda sets, isa: ReducedBTB(8 * sets, page_entries=2, isa=isa),
    "pdede": lambda sets, isa: PDedeBTB(
        8 * sets, page_entries=4, region_entries=2, page_associativity=2, isa=isa
    ),
    "btbx": lambda sets, isa: BTBX(8 * sets, companion_entries=sets, isa=isa),
}

#: Branch PCs: a dense code region plus a far one, so PCs repeat, share sets
#: and differ in the high bits the partial tag folds.
PCS = tuple(0x40_0000 + 4 * k for k in range(40)) + tuple(
    0x7F_1234_5000 + 4 * k for k in range(16)
)

#: Target displacements from the branch PC: same page, different page
#: (PDede/R-BTB pointers), 19- and 25-bit BTB-X ways, a different PDede
#: region, and offsets too wide for any BTB-X way (BTB-XC).
DELTAS = (8, -16, 0x300, 0x5000, -0x4_0000, 0x300_0000, 0x1000_0000, 0x40_0000_0000)

BRANCH_TYPES = (
    BranchType.CONDITIONAL,
    BranchType.UNCONDITIONAL,
    BranchType.CALL,
    BranchType.RETURN,
    BranchType.INDIRECT,
)

#: ASIDs, including ones whose color constant exceeds 64 bits.
ASIDS = (0, 1, 2, 7, 1_000_003)

PARTITIONS = (None, (1, 1), (1, 3), (2, 1, 1))

#: Per-structure state excluded from the lockstep comparison: the cached
#: key inputs and the index under test, the reference's patched-in probe,
#: and objects compared through their own reports.
_UNCOMPARED = frozenset({
    "_slice_base", "_slice_count", "_tag_color", "_resident", "_locate", "lookup",
    "_shadow_valid", "_shadow_tags", "_set_gen", "asid_policy", "companion", "isa",
})

OPS = st.one_of(
    st.tuples(st.just("lookup"), st.sampled_from(PCS)),
    st.tuples(
        st.just("update"),
        st.sampled_from(PCS),
        st.sampled_from(DELTAS),
        st.sampled_from(BRANCH_TYPES),
    ),
    st.tuples(st.just("asid"), st.sampled_from(ASIDS)),
    st.tuples(st.just("partition"), st.sampled_from(PARTITIONS)),
    st.tuples(st.just("invalidate")),
)


def _structures(btb):
    """``btb`` and, for BTB-X, its companion."""
    companion = getattr(btb, "companion", None)
    return (btb,) if companion is None else (btb, companion)


def _ways(btb, index):
    """The entries of set ``index`` (none while it is not materialized)."""
    return btb._sets[index] or ()


def _scratch_locate(btb, pc):
    """Lookup key from scratch: raw-PC set index, tag over the colored PC."""
    align = btb.isa.alignment_bits
    base, count = btb.asid_policy.active_slice(btb._MAIN_DOMAIN, btb.num_sets)
    index = base + (pc >> align) % count
    high = (pc ^ btb.asid_policy.color_constant()) >> align
    return (index << btb.tag_bits) | (fold_xor(high, btb.tag_bits) if high else 0)


class _WayScan:
    """A stand-in resident-tag index whose ``get`` scans the set's ways.

    Writes are ignored: the reference keeps no index, so every probe sees
    exactly the live entries.
    """

    def __init__(self, btb) -> None:
        self._btb = btb

    def get(self, key, default):
        btb = self._btb
        index, tag = key >> btb.tag_bits, key & ((1 << btb.tag_bits) - 1)
        for way, entry in enumerate(_ways(btb, index)):
            if entry.valid and entry.tag == tag:
                return way
        return default

    def __contains__(self, key) -> bool:
        return self.get(key, -1) >= 0

    def __setitem__(self, key, way) -> None:
        pass

    def __delitem__(self, key) -> None:
        pass

    def clear(self) -> None:
        pass


def _scratch_lookup(btb, pc):
    """The probe at the from-scratch key, past the inline key of ``lookup``."""
    return btb.lookup_prelocated(pc, _scratch_locate(btb, pc))


def _reference(name, sets, isa):
    btb = FACTORIES[name](sets, isa)
    for structure in _structures(btb):
        structure._locate = types.MethodType(_scratch_locate, structure)
        structure._resident = _WayScan(structure)
    btb.lookup = types.MethodType(_scratch_lookup, btb)
    return btb


def _plain(value):
    if isinstance(value, LRUState):
        return ("lru", tuple(value._stamps), value._clock)
    if isinstance(value, PointerTable):
        return ("pointers", value.name, _plain(value.slots), _plain(value._lru))
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _observable(btb):
    """Entries, LRU stamps, counters and ASID reports of every structure."""
    state = []
    for structure in _structures(btb):
        fields = {
            key: _plain(value)
            for key, value in vars(structure).items()
            if key not in _UNCOMPARED
        }
        state.append((
            fields,
            structure.energy_access_counts(),
            structure.partition_set_counts(),
            structure.duplication_counts(),
            structure.active_asid,
        ))
    return state


def _assert_index_is_live(btb) -> None:
    for structure in _structures(btb):
        live = {}
        for index in range(structure.num_sets):
            tags = [entry.tag for entry in _ways(structure, index) if entry.valid]
            assert len(tags) == len(set(tags)), f"{structure.name}: set {index} repeats a tag"
            for way, entry in enumerate(_ways(structure, index)):
                if entry.valid:
                    live[(index << structure.tag_bits) | entry.tag] = way
        assert structure._resident == live, f"{structure.name}: index != valid entries"


def _assert_pointers_are_live(btb) -> None:
    """No valid main entry points at an invalid Page- or Region-BTB slot.

    A slot is invalidated only together with the main array, or after the
    entries pointing at it were (``PointerTable.find_or_install``), so a hit
    never follows a stale pointer.  PDede's same-page entries hold -1.
    """
    tables = [table for table in vars(btb).values() if isinstance(table, PointerTable)]
    for index in range(btb.num_sets):
        for entry in _ways(btb, index):
            for table in tables:
                pointer = getattr(entry, table.pointer_field)
                if entry.valid and pointer >= 0:
                    assert table.slots[pointer].valid, f"{btb.name}: set {index} -> stale {table.name}"


def _apply(btb, op):
    kind = op[0]
    if kind == "lookup":
        return btb.lookup(op[1])
    if kind == "update":
        _, pc, delta, branch_type = op
        btb.update(Instruction.branch(pc, branch_type, True, pc + delta))
    elif kind == "asid":
        btb.set_active_asid(op[1])
    elif kind == "partition":
        btb.configure_partitions(op[1])
    else:
        btb.invalidate_all()
    return None


#: A closing burst of updates: near targets (any main way) for every PC,
#: then far ones in distinct pages and regions (pointer ways, BTB-XC).
#: Whatever the drawn operations left behind, it overflows every structure.
PRESSURE = tuple(("update", pc, 0x40, BranchType.CALL) for pc in PCS) + tuple(
    ("update", pc, (k + 1) * 0x1000_3000, BranchType.CALL) for k, pc in enumerate(PCS[::3])
)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    sets=st.sampled_from((2, 3)),
    isa=st.sampled_from(tuple(ISAStyle)),
    ops=st.lists(OPS, max_size=120),
)
def test_computed_probe_matches_scratch_reference(name, sets, isa, ops):
    btb = FACTORIES[name](sets, isa)
    reference = _reference(name, sets, isa)
    for op in (*ops, *PRESSURE):
        if op[0] == "lookup":
            for structure in _structures(btb):
                assert structure._locate(op[1]) == _scratch_locate(structure, op[1])
        assert _apply(btb, op) == _apply(reference, op), op
        assert _observable(btb) == _observable(reference), op
        _assert_index_is_live(btb)
        _assert_pointers_are_live(btb)
    counts = btb.energy_access_counts()
    assert counts["evictions"] > 0
    if name == "rbtb":
        assert counts["page_evictions"] > 0 and counts["pointer_invalidations"] > 0
    if name == "pdede":
        assert counts["page_evictions"] > 0 and counts["region_evictions"] > 0
    if name == "btbx":
        assert btb.companion.energy_access_counts()["evictions"] > 0


def test_reallocations_are_exercised():
    """The reallocation paths the drawn operations reach, pinned directly."""
    for name, far in (("btbx", 0x40_0000), ("pdede", 0x5000)):
        btb = FACTORIES[name](2, ISAStyle.ARM64)
        reference = _reference(name, 2, ISAStyle.ARM64)
        pc = PCS[0]
        for op in (
            ("update", pc, 8, BranchType.INDIRECT),
            ("lookup", pc),
            ("update", pc, far, BranchType.INDIRECT),
            ("lookup", pc),
        ):
            assert _apply(btb, op) == _apply(reference, op)
            assert _observable(btb) == _observable(reference)
            _assert_index_is_live(btb)
        assert btb.energy_access_counts()["reallocations"] == 1
        assert btb.lookup(pc).target == pc + far


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_fold12_is_the_generic_fold(value):
    assert fold12(value) == fold_xor(value, 12)


@pytest.mark.parametrize("isa", tuple(ISAStyle), ids=lambda isa: isa.value)
@pytest.mark.parametrize("companion_entries", (1, 3), ids=("shared1", "sliced3"))
def test_companion_key_is_derived_from_the_main_key(isa, companion_entries):
    """BTB-XC is probed at its from-scratch key under every ASID and map.

    Each branch is installed straight into BTB-XC at ``_scratch_locate``'s
    key, with the main array empty, so ``lookup`` hits only if its derived
    companion key is that key.  A one-entry companion stays shared beside a
    partitioned main array; a three-entry one is partitioned with it
    whenever the main array is.
    """
    btb = BTBX(8 * 3, companion_entries=companion_entries, isa=isa)
    companion = btb.companion
    for weights in PARTITIONS:
        btb.configure_partitions(weights)
        for asid in ASIDS:
            btb.set_active_asid(asid)
            for pc in PCS:
                btb.invalidate_all()
                _, entry = companion._allocate(_scratch_locate(companion, pc))
                entry.branch_type = BranchType.INDIRECT
                entry.target = pc + 0x40_0000_0000
                hits = btb.counters.get("hits.companion", 0)
                result = btb.lookup(pc)
                assert result.hit, (weights, asid, pc)
                assert btb.counters["hits.companion"] == hits + 1
                assert result.target == entry.target


def _prelocated_lookup(btb, pc):
    return btb.lookup_prelocated(pc, btb._locate(pc))


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(FACTORIES)),
    sets=st.sampled_from((2, 3)),
    isa=st.sampled_from(tuple(ISAStyle)),
    ops=st.lists(OPS, max_size=120),
)
def test_lookup_is_lookup_prelocated_at_the_located_key(name, sets, isa, ops):
    """``lookup(pc)`` is ``lookup_prelocated(pc, _locate(pc))``, side effects included.

    Two instances run the same operations; one probes with the one-call
    ``lookup``, the other at ``_locate``'s key.  Results, counters, entries
    and LRU stamps must agree after every operation.
    """
    btb = FACTORIES[name](sets, isa)
    prelocated = FACTORIES[name](sets, isa)
    prelocated.lookup = types.MethodType(_prelocated_lookup, prelocated)
    for op in (*ops, *PRESSURE, *(("lookup", pc) for pc in PCS)):
        assert _apply(btb, op) == _apply(prelocated, op), op
        assert _observable(btb) == _observable(prelocated), op


#: Every organization, the ideal BTB included.
ALL_FACTORIES = {**FACTORIES, "ideal": lambda sets, isa: IdealBTB()}


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_misses_are_reads_minus_hits(name):
    """``misses`` counts the lookups that missed, from the first one on.

    It is absent while only updates ran, present from the first miss, and
    still present (as 0) after a reset that followed a miss, even with no
    lookup since.  BTB-X's derived ``reads.companion`` counts its main
    misses and drops out at a reset, like a counted access.
    """
    btb = ALL_FACTORIES[name](2, ISAStyle.ARM64)
    rng = random.Random(2023)
    for pc in PCS[:12]:
        btb.update(Instruction.branch(pc, BranchType.CALL, True, pc + rng.choice(DELTAS)))
    for structure in _structures(btb):
        assert "misses" not in structure.energy_access_counts()
    missed = 0
    for op in [*_draw_ops(7), *PRESSURE]:
        result = _apply(btb, op)
        missed += result is not None and not result.hit
        counts = btb.energy_access_counts()
        assert counts.get("misses", 0.0) == missed, op
        if missed:
            assert counts["misses"] == counts["reads.main"] - counts.get("hits", 0.0)
        else:
            assert "misses" not in counts
    counts = btb.energy_access_counts()
    assert counts["misses"] > 0
    if name == "btbx":
        # BTB-XC is read once per main miss; its hits are BTB-X's.
        main_hits = counts["hits"] - counts["hits.companion"]
        assert counts["reads.companion"] == counts["reads.main"] - main_hits
    btb.reset_stats()
    btb.update(Instruction.branch(PCS[0], BranchType.CALL, True, PCS[0] + 8))
    assert btb.energy_access_counts()["misses"] == 0.0
    assert "reads.companion" not in btb.energy_access_counts()
    assert btb.lookup(PCS[0]).hit
    assert btb.energy_access_counts()["misses"] == 0.0


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_every_miss_is_the_shared_miss_result(name):
    """The simulator's loop settles a non-branch miss by the result's identity."""
    btb = ALL_FACTORIES[name](2, ISAStyle.ARM64)
    missed = 0
    for op in (*_draw_ops(2023), *PRESSURE, *(("lookup", pc) for pc in PCS)):
        result = _apply(btb, op)
        if result is not None and not result.hit:
            assert result is _MISS_RESULT, op
            missed += 1
    assert missed


#: XORed into an Arm64 PC, this keeps its folded partial tag and, with an
#: even number of sets, its set: the PCs alias in a 2-set array only.
TWIN = (2 | 2 << 12) << 2

#: One trace shared by every drawn example, so its cached alias sets span
#: every geometry the drawn operations reach: a non-branch at every PC, and
#: taken branches at every third one (their far targets in BTB-XC), each
#: with a non-branch at its twin.
ALIAS_TRACE = Trace(
    "aliases",
    [
        inst
        for k, pc in enumerate(PCS)
        for inst in (
            Instruction.non_branch(pc),
            *(
                [
                    Instruction.branch(pc, BranchType.CALL, True, pc + DELTAS[k % len(DELTAS)]),
                    Instruction.non_branch(pc ^ TWIN),
                ]
                if k % 3 == 0
                else []
            ),
        )
    ],
)


#: Fills at the PCs where the alias trace has no taken branch, near and far
#: (BTB-XC) targets alternating: entries only a resident key accounts for.
RESIDENT_FILLS = tuple(
    ("update", pc, DELTAS[0] if k % 2 else DELTAS[-1], BranchType.CALL)
    for k, pc in enumerate(PCS)
    if k % 3
)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(ALL_FACTORIES)),
    sets=st.sampled_from((2, 3)),
    isa=st.sampled_from(tuple(ISAStyle)),
    ops=st.lists(OPS, max_size=60),
    steps=st.lists(st.integers(0, len(ALIAS_TRACE) - 1), max_size=80),
)
def test_a_non_branch_outside_the_aliases_misses(name, sets, isa, ops, steps):
    """``probe_aliases`` is sound for whatever state a run starts from.

    After the drawn operations (fills, ASID switches, partition maps,
    invalidations) and :data:`RESIDENT_FILLS`, the trace's instructions
    replay in a drawn order and then in trace order, with the ASID and map
    fixed: every taken branch installs, and a non-branch outside the alias
    set must miss.  The fills leave entries (BTB-XC's included) that no
    taken branch of the trace installs.
    """
    btb = ALL_FACTORIES[name](sets, isa)
    for op in (*ops, *RESIDENT_FILLS):
        _apply(btb, op)
    aliases = btb.probe_aliases(ALIAS_TRACE)
    for inst in (*(ALIAS_TRACE[step] for step in steps), *ALIAS_TRACE):
        if inst.taken:
            btb.update(inst)
        elif inst.pc not in aliases:
            assert btb.lookup(inst.pc) is _MISS_RESULT, inst.pc


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_aliases_are_what_a_key_shares(name):
    """A fresh BTB's aliases are the non-branches whose key a taken branch installs.

    Every non-branch at a taken-branch PC is one, and a twin PC is one in a
    2-set array only: a set cached for one geometry is never served to
    another.  The cache holds no reference to its trace.
    """
    trace = Trace("keys", list(ALIAS_TRACE))
    taken = {inst.pc for inst in trace if inst.taken}
    non_branches = {inst.pc for inst in trace if not inst.is_branch}
    found = []
    for sets in (2, 3, 2):
        btb = ALL_FACTORIES[name](sets, ISAStyle.ARM64)
        if name == "ideal":
            expected = taken & non_branches
        else:
            expected = {
                pc
                for pc in non_branches
                if any(
                    s._locate(pc) in {s._locate(branch) for branch in taken}
                    for s in _structures(btb)
                )
            }
        assert taken & non_branches <= expected
        assert btb.probe_aliases(trace) == expected
        found.append(expected)
    if name != "ideal":
        assert found[0] == found[2] != found[1]
    collected = weakref.ref(trace)
    del trace
    gc.collect()
    assert collected() is None


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_a_reset_without_misses_reports_none(name):
    """The report's rules across ``reset_stats``, for every organization.

    An event counter touched only before the reset reports 0; a structure
    read or written only before it drops out of ``reads.*`` and
    ``writes.*``; ``reads.total`` and ``writes.total`` are always present;
    ``misses`` appears only once a miss has happened.  The far target goes
    through every secondary structure: Page-/Region-BTB or BTB-XC.
    """
    btb = ALL_FACTORIES[name](2, ISAStyle.ARM64)
    btb.update(Instruction.branch(PCS[0], BranchType.CALL, True, PCS[0] + DELTAS[-1]))
    assert btb.lookup(PCS[0]).hit
    warm = btb.energy_access_counts()
    assert "misses" not in warm
    assert {"reads.main", "reads.total", "writes.total"} <= set(warm)
    events = {key: 0.0 for key in warm if not key.startswith(("reads.", "writes.", "searches."))}
    assert "hits" in events
    btb.reset_stats()
    assert btb.energy_access_counts() == {**events, "reads.total": 0.0, "writes.total": 0.0}
    assert not btb.lookup(PCS[1]).hit
    counts = btb.energy_access_counts()
    assert counts["misses"] == counts["reads.main"] == 1.0
    assert counts["reads.total"] == 1.0 + counts.get("reads.companion", 0.0)
    assert [key for key in counts if key.startswith(("writes.", "searches."))] == ["writes.total"]
    assert counts["writes.total"] == 0.0


# -- pinned organization digests ---------------------------------------------

FIXTURE_PATH = pathlib.Path(__file__).parent / "golden" / "btb_org_digests.json"

#: Seeds of the pinned operation streams (one stream per seed and cell).
DIGEST_SEEDS = (2023, 7)
DIGEST_OPS = 250

#: ``(organization, isa, sets, seed)`` of every pinned stream.
DIGEST_CELLS = tuple(
    (name, isa, sets, seed)
    for name in sorted(FACTORIES)
    for isa in ISAStyle
    for sets in (2, 3)
    for seed in DIGEST_SEEDS
)


def digest_key(name, isa, sets, seed) -> str:
    return f"{name}/{isa.value}/{sets}sets/seed{seed}"


def _draw_ops(seed: int) -> list:
    """A fixed operation stream: mostly lookups and updates, some switches.

    Most lookups probe one of the last few updated PCs, so hits (and stale
    pointers met on a hit) are common, not only misses.
    """
    rng = random.Random(seed)
    ops = []
    recent = list(PCS[:4])
    for _ in range(DIGEST_OPS):
        roll = rng.random()
        if roll < 0.42:
            ops.append(("lookup", rng.choice(recent if rng.random() < 0.7 else PCS)))
        elif roll < 0.88:
            pc = rng.choice(PCS)
            recent = [*recent[-7:], pc]
            ops.append(("update", pc, rng.choice(DELTAS), rng.choice(BRANCH_TYPES)))
        elif roll < 0.95:
            ops.append(("asid", rng.choice(ASIDS)))
        elif roll < 0.98:
            ops.append(("partition", rng.choice(PARTITIONS)))
        else:
            ops.append(("invalidate",))
    return ops


def _reports(btb, result) -> list:
    """What one operation shows outside the organization."""
    if result is not None:
        result = list(result)
        result[1] = None if result[1] is None else result[1].name
    return [
        result,
        btb.energy_access_counts(),
        btb.duplication_counts(),
        btb.partition_set_counts(),
        btb.secondary_partition_counts(),
    ]


def run_digest_cell(name, isa, sets, seed) -> str:
    """sha256 over the reports of every operation of one pinned stream."""
    btb = FACTORIES[name](sets, isa)
    digest = hashlib.sha256()
    for op in (*_draw_ops(seed), *PRESSURE):
        reports = _reports(btb, _apply(btb, op))
        digest.update(json.dumps(reports, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def org_digests():
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"organization digest fixture {FIXTURE_PATH} is missing; regenerate it with "
            "'PYTHONPATH=src python tests/test_btb_probe_reference.py regenerate'"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_org_digest_fixture_matches_the_pinned_set(org_digests):
    assert sorted(org_digests["cells"]) == sorted(digest_key(*cell) for cell in DIGEST_CELLS)


@pytest.mark.parametrize("cell", DIGEST_CELLS, ids=[digest_key(*cell) for cell in DIGEST_CELLS])
def test_organization_digest_is_pinned(org_digests, cell):
    key = digest_key(*cell)
    assert run_digest_cell(*cell) == org_digests["cells"][key], (
        f"organization behaviour of {key} drifted from its pinned digest; if the change "
        "is intentional, regenerate tests/golden/btb_org_digests.json (see TESTING.md)"
    )


def regenerate() -> None:  # pragma: no cover - developer tool
    """Recompute every pinned organization digest and rewrite the fixture."""
    cells = {digest_key(*cell): run_digest_cell(*cell) for cell in DIGEST_CELLS}
    fixture = {"format": 1, "ops": DIGEST_OPS, "cells": cells}
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {len(cells)} cells to {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover - developer tool
    if len(sys.argv) == 2 and sys.argv[1] == "regenerate":
        regenerate()
    else:
        print(__doc__)
        raise SystemExit(f"usage: {sys.argv[0]} regenerate")
