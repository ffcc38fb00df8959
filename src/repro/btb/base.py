"""Common interface and machinery shared by all BTB organizations.

Every organization implements the same three operations the front end needs:

* :meth:`BTBBase.lookup` -- probe the BTB with a PC during prediction;
* :meth:`BTBBase.update` -- insert/refresh an entry when a taken branch
  commits (the paper updates the BTB at commit, for taken branches only);
* :meth:`BTBBase.storage_bits` -- report the SRAM bits the organization needs,
  used by the storage analysis and the energy model.

The lookup result distinguishes three cases the branch-prediction unit treats
differently: a miss, a hit whose target is supplied by the BTB, and a hit on a
return whose target must be read from the return address stack.

Every bounded organization is a :class:`SetAssociativeBTB`: one main array of
tagged, true-LRU ways, which owns the geometry, the probe, the allocator and
the residency bookkeeping.  An organization adds only what its entries store
(how a hit way becomes a target), which ways an entry may occupy, and any
secondary structure.  R-BTB's Page-BTB and PDede's Page- and Region-BTB are
each a :class:`PointerTable`.  The ideal BTB has no sets and derives from
:class:`BTBBase` directly.

Everything ASID-shaped -- tag coloring, capacity partitioning, duplication
accounting -- is delegated to one :class:`repro.common.asid.AddressSpacePolicy`
per organization (secondary structures register extra *domains* on the same
policy), so the context-switch semantics live in exactly one module.

Each organization counts in one place: a plain dict of integers
(:attr:`BTBBase.counters`) keyed by the names of its report -- event counts
(``hits``, ``evictions``, ...) and per-structure accesses (``reads.main``,
``writes.page``, ``searches.page``).  :meth:`BTBBase.energy_access_counts`
is the one report built from it, for the energy model (Table V) and the
exported ``btb_access_counts`` alike.
"""

from __future__ import annotations

import abc
import weakref
from bisect import insort
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

from repro.common.asid import AddressSpacePolicy
from repro.common.bitutils import fold_xor
from repro.common.config import ISAStyle, validate_partition_weights
from repro.common.errors import ConfigurationError
from repro.common.lru import LRUState
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.traces.trace import Trace


#: Width of every main array's partial tag (Figure 1: 12 bits).
TAG_BITS = 12

#: Ways of the main array of Conv-BTB, R-BTB and PDede.
MAIN_WAYS = 8

#: Key prefixes of the access counters; every other counter is an event count.
_ACCESS_KINDS = ("reads.", "writes.", "searches.")


def fold12(value: int) -> int:
    """``fold_xor(value, TAG_BITS)`` in closed form, exact for ``value < 2**96``.

    Each step folds the upper half of the remaining width onto the lower
    one: 48 bits, then 24, then 12.  Every 64-bit PC is inside the bound.
    """
    value ^= value >> 48
    value ^= value >> 24
    value ^= value >> 12
    return value & 0xFFF


class BTBLookupResult(NamedTuple):
    """Outcome of probing a BTB with a PC.

    An immutable tuple, which is cheap to build on every hit; every miss
    shares one instance (:data:`_MISS_RESULT`), which the simulator's loop
    tests by identity.
    """

    hit: bool
    branch_type: BranchType | None = None
    target: int | None = None
    target_from_ras: bool = False
    #: Number of cycles the lookup occupies the BTB port (PDede's
    #: different-page lookups take two cycles, everything else one).
    latency_cycles: int = 1


#: Shared immutable miss result, avoiding one allocation per missing lookup.
_MISS_RESULT = BTBLookupResult(hit=False)


class BTBBase(abc.ABC):
    """Abstract base class of every BTB organization."""

    #: Short machine-readable name ("conventional", "pdede", "btbx", ...).
    name: str = "btb"

    #: Policy domain of the organization's primary (main) array.
    _MAIN_DOMAIN = "main"

    def __init__(self) -> None:
        #: The one counter store: event counts and per-structure accesses,
        #: plain integers bumped in place (the lookup is the simulator's inner
        #: loop).  :meth:`energy_access_counts` is the report built from it.
        self.counters: dict[str, int] = {}
        #: Whether a miss happened before the last :meth:`reset_stats`, so
        #: the derived ``misses`` counter reads 0 rather than vanishing.
        self._missed_before_reset = False
        #: All ASID machinery (tag coloring, partitioning, duplication
        #: accounting) for this organization and its secondary structures.
        self.asid_policy = AddressSpacePolicy()

    # -- mandatory interface ----------------------------------------------

    @abc.abstractmethod
    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe the BTB with ``pc``; counts a read access."""

    @abc.abstractmethod
    def update(self, instruction: Instruction) -> None:
        """Insert or refresh the entry for a committed taken branch."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total SRAM bits of the organization (all partitions)."""

    @abc.abstractmethod
    def capacity_entries(self) -> int:
        """Number of branches the organization can track simultaneously."""

    @abc.abstractmethod
    def invalidate_all(self) -> None:
        """Clear every entry (context-switch flush, tests, warmup control)."""

    # -- shared helpers ----------------------------------------------------

    @property
    def active_asid(self) -> int:
        """Address-space identifier of the currently scheduled tenant."""
        return self.asid_policy.active_asid

    def set_active_asid(self, asid: int) -> None:
        """Switch the address space the BTB tags its entries with.

        ASID 0 is the neutral color: with it, tagging is a no-op.
        """
        self.asid_policy.activate(asid)

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Split this organization's capacity among tenants (``None`` to share).

        The base accepts (and validates) a partition map but changes nothing:
        an unbounded BTB has no capacity to divide, and keying entries by
        ASID already isolates every tenant.  :class:`SetAssociativeBTB`
        partitions its sets.
        """
        if weights is not None:
            validate_partition_weights(weights)

    def partition_set_counts(self) -> list[int] | None:
        """Sets per tenant partition (``None`` when the structure is shared)."""
        return self.asid_policy.domain_counts(self._MAIN_DOMAIN)

    def secondary_partition_counts(self) -> dict[str, list[int]]:
        """Per-tenant capacity of each partitioned *secondary* structure.

        Organizations with secondary structures (PDede's Page-/Region-BTB,
        R-BTB's Page-BTB, BTB-X's companion) report the per-tenant slice sizes
        of every secondary structure they actually partitioned; structures
        that fell back to sharing (fewer sets/entries than tenants) are
        omitted.  The base implementation reports every partitioned policy
        domain other than the main array, which covers any organization that
        registers its secondaries as extra domains.
        """
        return self.asid_policy.partition_report(exclude=(self._MAIN_DOMAIN,))

    def storage_kib(self) -> float:
        """Storage requirement in KiB."""
        return self.storage_bits() / 8.0 / 1024.0

    def probe_aliases(self, trace: Trace) -> frozenset[int] | None:
        """The non-branch PCs of ``trace`` whose probe may hit, or ``None``.

        The answer holds for a run of ``trace`` that starts now and keeps
        the active ASID and partition slice: the BTB is written only at
        commit and only for taken branches, so a non-branch's probe can hit
        only at a key already resident or at a key one of the trace's taken
        branches installs.  The single-trace loop of
        :meth:`~repro.core.simulator.FrontEndSimulator.run` probes a
        non-branch only when its PC is in the set, and credits every other
        probe through :meth:`note_skipped_miss_lookups`.  ``None`` means
        unknown, and the loop probes every PC: that is this base answer.
        """
        return None

    def note_skipped_miss_lookups(self, count: int) -> None:
        """Account ``count`` lookups that were proved misses and not made.

        The scalar loop skips the non-branch probes :meth:`probe_aliases`
        rules out, and the batched engine the probes its plans prove to
        miss.  This applies their only architectural footprint -- the read
        counter, from which the misses are derived (a missing lookup touches
        no LRU state, and BTB-X derives BTB-XC's reads from the same
        counter).
        """
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + count

    def record_allocation(self, structure: str, key: int) -> None:
        """Note that ``structure`` was asked to track ``key`` (duplication stats).

        Delegates to :meth:`repro.common.asid.AddressSpacePolicy.record_allocation`;
        see there for the reference-time semantics.
        """
        self.asid_policy.record_allocation(structure, key)

    def duplication_counts(self) -> dict[str, dict[str, int]]:
        """Distinct vs tag-distinct allocations per structure.

        See :meth:`repro.common.asid.AddressSpacePolicy.duplication_counts`
        for the counter semantics; organizations whose secondaries keep their
        own policy (BTB-X's companion) merge the reports.
        """
        return self.asid_policy.duplication_counts()

    def energy_access_counts(self) -> dict[str, float]:
        """The organization's one counter report, as the energy model consumes it.

        Event counters come first, then ``misses``, then each access kind's
        per-structure counters, with ``reads.total`` and ``writes.total``.
        ``misses`` is derived, never counted: every probe reads its primary
        structure once and counts at most one hit.  It is reported from the
        first miss on, and as 0 after a :meth:`reset_stats` that followed
        one.  Across a reset an event counter stays (as 0), and an access
        counter drops out until its structure is accessed again.  The energy
        model and the exported ``btb_access_counts`` both read this report
        (BTB-X's adds its companion's accesses), so they cannot drift apart.
        """
        counters = self.counters
        report = {
            name: float(value) for name, value in counters.items()
            if not name.startswith(_ACCESS_KINDS)
        }
        misses = counters.get("reads.main", 0) - counters.get("hits", 0)
        if misses or self._missed_before_reset:
            report["misses"] = float(misses)
        for kind in _ACCESS_KINDS:
            accesses = {name: float(value) for name, value in counters.items() if name.startswith(kind)}
            report.update(accesses)
            if kind != "searches.":
                report[f"{kind}total"] = float(sum(accesses.values()))
        return report

    def reset_stats(self) -> None:
        """Restart the counters (used between warmup and measurement)."""
        counters = self.counters
        self._missed_before_reset = self._missed_before_reset or (
            counters.get("reads.main", 0) > counters.get("hits", 0)
        )
        self.counters = {
            name: 0 for name in counters if not name.startswith(_ACCESS_KINDS)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(entries={self.capacity_entries()}, "
            f"storage={self.storage_kib():.2f}KiB)"
        )


#: Alias sets (:meth:`BTBBase.probe_aliases`) per trace, then per probe
#: geometry; a trace's entry is freed with the trace.
_ALIASES: "weakref.WeakKeyDictionary[Trace, dict[tuple, frozenset[int]]]" = (
    weakref.WeakKeyDictionary()
)


def cached_aliases(trace: Trace, geometry: tuple, compute) -> frozenset[int]:
    """``trace``'s alias set for ``geometry``, computed by ``compute()`` on first use."""
    per_trace = _ALIASES.get(trace)
    if per_trace is None:
        per_trace = _ALIASES[trace] = {}
    aliases = per_trace.get(geometry)
    if aliases is None:
        aliases = per_trace[geometry] = compute()
    return aliases


class SetAssociativeBTB(BTBBase):
    """A main array of ``num_sets`` x ``associativity`` tagged, true-LRU ways.

    Owns everything the bounded organizations share: the geometry, the probe
    (:meth:`lookup`: one computed key, one read of the resident-tag index),
    the allocator (invalid eligible way first, else the constrained-LRU
    victim), whole-array invalidation and the batched backend's residency
    shadow.
    A subclass names its entry type (a slotted dataclass with ``valid`` and
    ``tag`` fields) and implements :meth:`_hit`, its :meth:`update` and its
    storage formulas.

    Sets materialize lazily on first install, and :meth:`invalidate_all`
    drops them back to ``None`` together with their LRU state.  That is
    bit-identical to clearing valid bits: a victim is picked by LRU only when
    every eligible way is valid, and each valid way was touched by the fill
    that made it valid, so every stamp compared was written after the set
    last materialized.
    """

    #: Entry type of the main array's ways.
    _entry_type: type

    def __init__(
        self,
        entries: int,
        associativity: int = MAIN_WAYS,
        isa: ISAStyle = ISAStyle.ARM64,
    ) -> None:
        super().__init__()
        if entries <= 0 or associativity <= 0 or entries % associativity != 0:
            raise ConfigurationError(
                f"{self.name} entries ({entries}) must be a positive multiple of "
                f"the associativity ({associativity})"
            )
        self.isa = isa
        self.alignment_bits = isa.alignment_bits
        self.tag_bits = TAG_BITS
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._sets: List[list | None] = [None] * self.num_sets
        self._lru: List[LRUState | None] = [None] * self.num_sets
        #: The active tenant's ``(base, count)`` slice of the sets (all of
        #: them when shared) and the active ASID's color folded to
        #: ``tag_bits``; :meth:`_select_locations` refreshes all three.
        self._slice_base = 0
        self._slice_count = self.num_sets
        self._tag_color = 0
        #: Resident-tag index: ``(index << tag_bits) | tag -> way`` of every
        #: valid way.  No two valid ways of a set share a tag (an update
        #: refreshes a matching way before it would allocate), so a probe is
        #: one ``get`` instead of a scan of the set's ways.
        self._resident: dict[int, int] = {}
        #: Residency shadow of the ways (numpy ``(valid, tag)`` per set x
        #: way), built by the first batch plan and written through from then
        #: on; ``_set_gen`` is each set's residency generation, bumped on
        #: every ``(valid, tag)`` change and NOT on refreshes or LRU movement.
        self._shadow_valid = None
        self._shadow_tags = None
        self._set_gen: list[int] = []

    def capacity_entries(self) -> int:
        """Number of main-array entries."""
        return self.num_sets * self.associativity

    # -- probe ---------------------------------------------------------------

    def lookup(self, pc: int) -> BTBLookupResult:
        """Probe all ways of the indexed set in parallel.

        One call per probe: the key of :meth:`_locate` is computed inline
        (the :func:`fold12` steps, the cached partition slice and color),
        then one read of the resident-tag index, and :meth:`_hit` only on a
        hit.  A miss costs the read counter and nothing else, returns the
        shared :data:`_MISS_RESULT`, and :meth:`energy_access_counts` derives
        the misses from the reads and hits.  Most instructions are not
        branches and miss; a single-trace run does not probe those that
        :meth:`probe_aliases` rules out, and credits their reads through
        :meth:`note_skipped_miss_lookups`.
        """
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + 1
        high = pc >> self.alignment_bits
        tag = high ^ (high >> 48)
        tag ^= tag >> 24
        tag ^= tag >> 12
        key = ((self._slice_base + high % self._slice_count) << TAG_BITS) | (
            (tag & 0xFFF) ^ self._tag_color
        )
        way = self._resident.get(key, -1)
        if way < 0:
            return _MISS_RESULT
        index = key >> TAG_BITS
        self._lru[index].touch(way)
        return self._hit(pc, index, way)

    def lookup_prelocated(self, pc: int, key: int, way: int | None = None) -> BTBLookupResult:
        """:meth:`lookup` with the key (:meth:`_locate`) already computed.

        The batched backend's plans probe through it.  ``way`` is a plan's
        preresolution (``-1`` certain miss, ``>= 0`` the hit way); ``None``
        reads the resident-tag index.  Both give :meth:`lookup`'s result,
        counters and LRU movement.
        """
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + 1
        if way is None:
            way = self._resident.get(key, -1)
        if way < 0:
            return _MISS_RESULT
        index = key >> TAG_BITS
        self._lru[index].touch(way)
        return self._hit(pc, index, way)

    @abc.abstractmethod
    def _hit(self, pc: int, index: int, way: int) -> BTBLookupResult:
        """The result of a tag match in way ``way`` of set ``index``; counts the hit."""

    # -- allocation ----------------------------------------------------------

    def _resident_entry(self, key: int, eligible: Sequence[int] | None = None):
        """The entry ``key`` occupies, made most recent, or ``None``.

        A resident way outside ``eligible`` cannot hold the update's payload
        (a BTB-X offset grown past the way's width, a PDede branch that now
        needs pointers in a same-page way): it is invalidated and counted as
        a reallocation, and the caller allocates anew.
        """
        way = self._resident.get(key, -1)
        if way < 0:
            return None
        index = key >> self.tag_bits
        entry = self._sets[index][way]
        if eligible is None or way in eligible:
            self._lru[index].touch(way)
            return entry
        self._clear_way(index, way, entry)
        counters = self.counters
        counters["reallocations"] = counters.get("reallocations", 0) + 1
        return None

    def _allocate(self, key: int, eligible: Sequence[int] | None = None):
        """Install ``key`` in its set; returns ``(way, entry)``.

        The first invalid way among ``eligible`` (default: every way) is
        taken, else the least recently used of them is evicted -- BTB-X's
        constrained LRU.  The caller fills in the payload fields.
        """
        index = key >> self.tag_bits
        entries = self._sets[index]
        if entries is None:
            entries = self._materialize(index)
        ways = range(self.associativity) if eligible is None else eligible
        victim = next((way for way in ways if not entries[way].valid), None)
        lru = self._lru[index]
        counters = self.counters
        if victim is None:
            victim = lru.victim(eligible)
            counters["evictions"] = counters.get("evictions", 0) + 1
        entry = entries[victim]
        self._fill_way(key, victim, entry)
        lru.touch(victim)
        counters["writes.main"] = counters.get("writes.main", 0) + 1
        counters["allocations"] = counters.get("allocations", 0) + 1
        return victim, entry

    def _materialize(self, index: int) -> list:
        """Allocate the ways (and LRU state) of set ``index`` on first install."""
        entries = [self._entry_type() for _ in range(self.associativity)]
        self._sets[index] = entries
        self._lru[index] = LRUState(self.associativity)
        return entries

    def _invalidate_pointers(self, field: str, slot: int) -> None:
        """Invalidate the entries whose ``field`` points at pointer-table ``slot``."""
        for index, entries in enumerate(self._sets):
            if entries is None:
                continue
            for way, entry in enumerate(entries):
                if entry.valid and getattr(entry, field) == slot:
                    self._clear_way(index, way, entry)
                    counters = self.counters
                    counters["pointer_invalidations"] = counters.get("pointer_invalidations", 0) + 1

    def invalidate_all(self) -> None:
        """Clear every way of the main array."""
        self._sets = [None] * self.num_sets
        self._lru = [None] * self.num_sets
        self._resident.clear()
        if self._shadow_tags is not None:
            self._set_gen = [gen + 1 for gen in self._set_gen]
            self._shadow_valid[:] = False

    # -- ASID: locations and partitions ------------------------------------

    def set_active_asid(self, asid: int) -> None:
        """Switch the address space; its color is folded into the partial tag.

        Entries installed by one tenant never hit for another while all
        tenants share the same storage (see :meth:`_locate`).
        """
        super().set_active_asid(asid)
        self._select_locations()

    def configure_partitions(self, weights: Sequence[int] | None) -> None:
        """Split this organization's sets among tenants (``None`` to share).

        Partitioning is by **sets**, not ways: BTB-X's ways have heterogeneous
        offset widths, so carving up ways would skew which branches each
        tenant can even store, while set ranges scale capacity uniformly for
        every organization.  Tenant *i*'s slice holds ``weights[i] / sum``
        of the sets (at least one), apportioned by
        :func:`repro.common.config.partition_set_counts`.  ASID ``a`` indexes
        partition ``a % len(weights)`` -- under warm switch semantics that is
        the tenant itself, and under cold semantics every incarnation of a
        tenant lands in the same slice (so dead incarnations pollute only
        their own tenant's capacity, never a neighbour's).

        A structure with fewer sets than tenants cannot give everyone a
        slice; it stays shared (still ASID-tagged) instead, exactly like the
        small secondaries (BTB-XC, PDede's Region-BTB) always have.  That is
        what lets partitioned-mode scenarios scale past a structure's set
        count -- a 1024-tenant consolidation on a 512-set BTB degrades to
        tagged sharing, reported as such (:meth:`partition_set_counts`
        returns ``None``), rather than refusing to run.

        The structure is invalidated whenever the partition map may have
        changed (including back to shared): entries installed under a
        different map would be unreachable or, worse, reachable from the
        wrong slice.
        """
        changed = self.asid_policy.configure(self._MAIN_DOMAIN, self.num_sets, weights)
        self._select_locations()
        if changed:
            self.invalidate_all()

    def _locate(self, pc: int) -> int:
        """Lookup key ``(index << tag_bits) | tag`` of ``pc`` in the main array.

        :func:`batch_locate` is its vectorized twin.  The key is also the
        resident-tag index's key, so a probe is
        ``_resident.get(_locate(pc), -1)``.

        The set index uses the raw PC, confined to the active tenant's
        partition slice.  The partial tag XOR-folds the whole PC above the
        alignment bits down to ``tag_bits`` (:func:`fold12`), as real BTBs
        do to keep tag storage small with minimal aliasing.  The index bits
        are deliberately *included* in the hash: organizations sized to an
        exact storage budget can have non-power-of-two set counts (e.g. a
        1856-entry conventional BTB) whose modulo indexing would otherwise
        let two PCs that differ only in low-order bits share both a set and a
        tag.  Only the tag sees the ASID color, one XOR with the folded color
        constant -- exact because XOR-folding is XOR-linear -- while set
        indexing and target recovery (BTB-X offset concatenation, PDede
        same-page rebuild) keep the raw PC.
        """
        high = pc >> self.alignment_bits
        return ((self._slice_base + high % self._slice_count) << TAG_BITS) | (
            fold12(high) ^ self._tag_color
        )

    def probe_aliases(self, trace: Trace) -> frozenset[int]:
        """The non-branch PCs whose key a taken branch of ``trace`` or a resident way holds.

        See :meth:`BTBBase.probe_aliases`.  The taken-branch half depends
        only on the trace and on what :meth:`_locate` reads, so it is cached
        per trace and geometry; the resident half is keyed anew whenever the
        array holds anything.
        """
        sites = trace.probe_sites()
        pcs = sites.non_branch_pcs
        locate = self._locate

        def aliases_at(keys) -> frozenset[int]:
            return frozenset(pc for pc, key in zip(pcs, map(locate, pcs)) if key in keys)

        geometry = (self.alignment_bits, self._slice_base, self._slice_count, self._tag_color)
        aliases = cached_aliases(
            trace, geometry, lambda: aliases_at(set(map(locate, sites.taken_branch_pcs)))
        )
        if self._resident:
            aliases |= aliases_at(self._resident)
        return aliases

    def _select_locations(self) -> None:
        """Cache the active ASID's partition slice and folded tag color."""
        policy = self.asid_policy
        color = policy.color_constant()
        self._tag_color = fold_xor(color >> self.alignment_bits, TAG_BITS) if color else 0
        self._slice_base, self._slice_count = policy.active_slice(self._MAIN_DOMAIN, self.num_sets)

    # -- residency -----------------------------------------------------------
    #
    # A way's ``(valid, tag)`` changes only through :meth:`_fill_way` and
    # :meth:`_clear_way`, and a whole-array invalidation only through
    # :meth:`invalidate_all`.  They keep the resident-tag index, which every
    # probe reads, and -- once a batch plan has built it -- the batched
    # backend's numpy shadow.

    def _fill_way(self, key: int, way: int, entry) -> None:
        """Make ``entry``, way ``way`` of ``key``'s set, valid with ``key``'s tag.

        A valid ``entry`` is the victim: its old key leaves the index first.
        """
        tag_bits = self.tag_bits
        index = key >> tag_bits
        tag = key ^ (index << tag_bits)
        if entry.valid:
            del self._resident[(index << tag_bits) | entry.tag]
        self._resident[key] = way
        entry.valid = True
        entry.tag = tag
        if self._shadow_tags is not None:
            self._set_gen[index] += 1
            self._shadow_valid[index, way] = True
            self._shadow_tags[index, way] = tag

    def _clear_way(self, index: int, way: int, entry) -> None:
        """Invalidate ``entry``, way ``way`` of set ``index``."""
        del self._resident[(index << self.tag_bits) | entry.tag]
        entry.valid = False
        if self._shadow_tags is not None:
            self._set_gen[index] += 1
            self._shadow_valid[index, way] = False

    def _resident_ways(self):
        """``(set, way, tag)`` of every valid way, scanned from the entries."""
        for index, entries in enumerate(self._sets):
            for way, entry in enumerate(entries or ()):
                if entry.valid:
                    yield index, way, entry.tag

    # -- batched backend -------------------------------------------------------

    def batch_plan(self, pcs, taken_branch_pcs) -> "BatchPlan":
        """Plan one scheduling chunk's lookups over the ``pcs`` array.

        Every organization returns a :class:`BatchPlan`, whose two members
        the batched engine consumes:

        * ``guaranteed_miss`` -- a boolean array marking PCs that *provably*
          miss for the whole chunk: their lookup key is neither resident now
          nor among the keys any taken branch of the chunk
          (``taken_branch_pcs``) could install.  Within a chunk the active
          ASID -- hence coloring and partition slice -- is constant, updates
          install only at taken-branch keys and evictions (LRU victims,
          Page-/Region-BTB pointer invalidations, reallocations) only remove
          entries, so the filter is static and exact;
        * ``lookup(position, pc)`` -- perform the real lookup for the chunk's
          ``position``-th instruction, with the result, LRU movement and
          counters of the scalar probe bit for bit.

        Here the keys are located by :func:`batch_locate`, residency is read
        from the numpy shadow of the ways, and the plan *preresolves* each
        probe to a hit way or a certain miss, guarded at lookup time by the
        set's residency generation.  An unchanged generation proves the set's
        ``(valid, tag)`` state is exactly the plan-time shadow (refreshes and
        LRU movement never bump it, and a preresolved hit reads the live
        entry, so payload refreshes are always observed); a set that did
        change is probed through the resident-tag index, as the scalar path
        is.  The ideal BTB, which has no sets, plans its own.
        """
        from repro.traces.batch import np

        index, tag = batch_locate(self, pcs)
        valid, tags = self._ensure_shadow()
        match = valid[index] & (tags[index] == tag[:, None])
        hit_any = match.any(axis=1)
        resolved = np.where(hit_any, match.argmax(axis=1).astype(np.int64), np.int64(-1))
        guaranteed_miss = ~hit_any
        shift = np.uint64(self.tag_bits)
        key = (index << shift) | tag
        if len(taken_branch_pcs):
            tb_index, tb_tag = batch_locate(self, taken_branch_pcs)
            guaranteed_miss &= ~np.isin(key, (tb_index << shift) | tb_tag)
        gen = np.asarray(self._set_gen, dtype=np.int64)[index]
        return SetBatchPlan(
            self, guaranteed_miss, index.tolist(), key.tolist(), resolved.tolist(), gen.tolist()
        )

    def _ensure_shadow(self):
        """Build (once) and return the numpy ``(valid, tags)`` residency shadow.

        The shadow mirrors exactly the ``(entry.valid, entry.tag)`` pairs of
        the resident-tag index, and ``_set_gen`` counts each set's residency
        changes.  Every later mutation writes through (:meth:`_fill_way`,
        :meth:`_clear_way`, :meth:`invalidate_all`), so after this first full
        scan the resident set is always readable as two array gathers.
        """
        if self._shadow_tags is None:
            from repro.traces.batch import np

            shape = (self.num_sets, self.associativity)
            self._shadow_valid = np.zeros(shape, dtype=bool)
            self._shadow_tags = np.zeros(shape, dtype=np.uint64)
            self._set_gen = [0] * self.num_sets
            for index, way, tag in self._resident_ways():
                self._shadow_valid[index, way] = True
                self._shadow_tags[index, way] = tag
        return self._shadow_valid, self._shadow_tags


# NOTE on the ``asid`` field below: page/region numbers are exact-matched
# content (they rebuild targets), so ASID disambiguation needs a real field
# rather than the main tag's hash *coloring*.  Its storage is deliberately
# not charged in the Page-/Region-BTB entry bits: budget-sized geometries
# stay identical across ASID modes (and match the paper's untagged Table IV
# accounting), at the cost of making tagged-mode PDede/R-BTB results an
# optimistic bound -- real hardware would spend a few bits per entry or a
# small ASID-remap table.  The same free-coloring convention already applies
# to every main structure's tags.
@dataclass(slots=True)
class _PointerSlot:
    valid: bool = False
    value: int = 0  # the deduplicated target fragment (page or region number)
    asid: int = 0   # owning address space under tagged/partitioned retention


class PointerTable:
    """A content-addressed table of deduplicated target fragments.

    R-BTB's Page-BTB and PDede's Page- and Region-BTB store each distinct
    page or region number once per address space; main-array entries hold a
    slot pointer (field ``<name>_pointer``) instead.  One LRU clock orders
    every slot, so a set-associative table (PDede's Page-BTB) is a sequence
    of slot ranges searched one range at a time.

    A search reads an index instead of scanning the range: the ascending
    slots of every valid ``(value, asid)`` pair.  A pair can be resident in
    more than one range (PDede holds one page number in two page sets), and
    a partition change can leave a pair in a slot outside the ranges it was
    installed from, so the search takes the lowest of the pair's slots
    inside the range -- the one a scan in slot order finds.
    """

    __slots__ = ("name", "pointer_field", "slots", "_lru", "_index", "_evictions", "_writes")

    def __init__(self, name: str, entries: int) -> None:
        self.name = name
        self.pointer_field = f"{name}_pointer"
        self.slots = [_PointerSlot() for _ in range(entries)]
        self._lru = LRUState(entries)
        self._index: dict[tuple[int, int], list[int]] = {}
        self._evictions = f"{name}_evictions"
        self._writes = f"writes.{name}"

    def find_or_install(self, btb: SetAssociativeBTB, value: int, first: int, count: int) -> int:
        """The slot of ``(value, btb's active ASID)`` among ``[first, first + count)``.

        A hit is made most recent.  A miss installs the pair in the range's
        first invalid slot, else in its least recently used one, after
        ``btb`` invalidated the main-array entries pointing at that slot.
        """
        asid = btb.asid_policy.active_asid
        holders = self._index.get((value, asid))
        if holders is not None:
            for slot in holders:
                if first <= slot < first + count:
                    self._lru.touch(slot)
                    return slot
        slots = self.slots
        candidates = range(first, first + count)
        slot = next((slot for slot in candidates if not slots[slot].valid), None)
        counters = btb.counters
        if slot is None:
            slot = self._lru.victim(candidates)
            btb._invalidate_pointers(self.pointer_field, slot)
            counters[self._evictions] = counters.get(self._evictions, 0) + 1
            victim = slots[slot]
            evicted = self._index[(victim.value, victim.asid)]
            evicted.remove(slot)
            if not evicted:
                del self._index[(victim.value, victim.asid)]
        entry = slots[slot]
        entry.valid = True
        entry.value = value
        entry.asid = asid
        insort(self._index.setdefault((value, asid), []), slot)
        self._lru.touch(slot)
        counters[self._writes] = counters.get(self._writes, 0) + 1
        return slot

    def invalidate(self) -> None:
        """Clear every slot."""
        for entry in self.slots:
            entry.valid = False
        self._index.clear()


class BatchPlan:
    """One scheduling chunk's lookup plan (see :meth:`SetAssociativeBTB.batch_plan`).

    This base form carries only the guaranteed-miss filter; its lookups are
    the organization's ordinary scalar probe.
    """

    __slots__ = ("_btb", "guaranteed_miss")

    def __init__(self, btb: BTBBase, guaranteed_miss) -> None:
        self._btb = btb
        self.guaranteed_miss = guaranteed_miss

    def lookup(self, position: int, pc: int) -> BTBLookupResult:
        """The real lookup for the chunk's ``position``-th instruction."""
        del position
        return self._btb.lookup(pc)


class SetBatchPlan(BatchPlan):
    """Plan of a set-associative organization: pre-located, preresolved probes."""

    __slots__ = ("_index", "_key", "_resolved", "_gen", "secondary")

    def __init__(self, btb: SetAssociativeBTB, guaranteed_miss, index, key, resolved, gen) -> None:
        super().__init__(btb, guaranteed_miss)
        self._index = index
        self._key = key
        #: Per-position preresolution against the plan-time shadow: ``-1``
        #: certain miss, ``>= 0`` the hit way.  Valid while the set's
        #: residency generation still equals the plan-time snapshot.
        self._resolved = resolved
        self._gen = gen
        #: Plan of a secondary structure probed on a main miss (BTB-X's
        #: companion), passed through to ``lookup_prelocated``.
        self.secondary: BatchPlan | None = None

    def lookup(self, position: int, pc: int) -> BTBLookupResult:
        """Probe with the chunk-vectorized location of ``position``.

        A preresolved position skips the resident-tag index, and the
        organization's ``lookup_prelocated`` replays the probe's every side
        effect; a position whose set changed residency since plan time
        (generation mismatch) reads the index.
        """
        btb = self._btb
        key = self._key[position]
        way = (
            self._resolved[position]
            if btb._set_gen[self._index[position]] == self._gen[position]
            else None
        )
        if self.secondary is None:
            return btb.lookup_prelocated(pc, key, way)
        return btb.lookup_prelocated(pc, key, way, self.secondary, position)


def batch_locate(btb: SetAssociativeBTB, pcs):
    """Vectorized twin of :meth:`SetAssociativeBTB._locate`.

    Computes the set index and partial tag of every PC in the uint64 array
    ``pcs`` from the same cached ASID state the scalar ``_locate`` reads --
    the active partition slice and the folded color (``_tag_color``), both
    constant within a scheduling chunk.  The arithmetic is element-wise
    identical: raw-PC set indexing within the slice and an XOR-folded tag.
    Color constants can exceed 64 bits (cold-semantics ASIDs), which is why
    the color is folded in arbitrary precision once per ASID switch and
    XORed into the vectorized fold.
    """
    from repro.traces.batch import fold_xor_array, np, set_index_array

    shifted = pcs >> np.uint64(btb.alignment_bits)
    index = set_index_array(shifted, btb._slice_count)
    if btb._slice_base:
        index = index + np.uint64(btb._slice_base)
    tags = fold_xor_array(shifted, btb.tag_bits)
    if btb._tag_color:
        tags = tags ^ np.uint64(btb._tag_color)
    return index, tags
