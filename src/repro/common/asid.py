"""Cross-layer address-space (ASID) policy shared by every taggable structure.

Context switches touch three kinds of predictive/cached state in this model
-- the BTB organizations (main arrays plus their Page-/Region-/companion
secondaries), the branch-prediction unit's RAS and the memory hierarchy's
set-associative caches.  Every set-indexed structure among them follows one
address-space rule: a key of the active ASID lives at

    ``base + raw_index % count``,  matched on ``raw_tag ^ color``

where ``(base, count)`` is the active tenant's slice of the structure (all of
it when shared) and ``color`` is the active ASID's color constant (0 for
ASID 0).  The policy answers the three questions that rule needs:

* :meth:`AddressSpacePolicy.configure` -- partition a domain's sets or
  entries among tenants by scheduling weight, or return it to sharing.  A
  structure with fewer sets/entries than tenants stays shared (and still
  tagged);
* :meth:`AddressSpacePolicy.active_slice` -- the active tenant's
  ``(base, count)`` range;
* :meth:`AddressSpacePolicy.color_constant` -- the XOR constant folded into
  tags.  ASID 0 colors to the identity, so a single-address-space run is
  bit-identical whether or not tagging is in effect.

Adopters cache the slice and color at every ASID switch and partition change
and compute index and tag in closed form.  *When* to flush is decided by
:func:`retains_across_switch`, the one place that spells out which
:class:`~repro.common.config.ASIDMode` retains state.  The policy also keeps
per-tenant slice reports and duplication accounting (distinct contents
versus distinct ``(asid, content)`` pairs, the storage tagging spends on
shared code).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.config import ASIDMode, partition_set_counts, validate_partition_weights

#: Multiplier spreading an ASID over the bits folded into partial tags.
#: ASID 0 colors to the identity, so single-address-space simulations are
#: bit-identical whether or not tagging is in effect.
ASID_SALT = 0x9E3779B97F4A7C15

#: ASID color bits sit above bit 16.  The colored value feeds ONLY tag
#: matching, never set indexing, so tagging changes which entries *match*,
#: not which set a key lives in -- exactly how hardware ASID tags behave
#: (this also holds for non-power-of-two set counts, whose modulo indexing
#: would otherwise be scrambled by high color bits).
ASID_SHIFT = 16


def retains_across_switch(mode: ASIDMode) -> bool:
    """Whether predictive/cached state survives a context switch under ``mode``.

    ``FLUSH`` discards; ``TAGGED`` and ``PARTITIONED`` retain (partitioning
    only changes *indexing*, not retention).  Every adopter -- the BPU, the
    memory hierarchy -- keys its switch behavior off this one predicate.
    """
    return mode is not ASIDMode.FLUSH


def partition_ranges(total: int, weights: Sequence[int]) -> List[Tuple[int, int]]:
    """Contiguous ``(base, count)`` slices apportioning ``total`` by ``weights``."""
    counts = partition_set_counts(total, weights)
    ranges: List[Tuple[int, int]] = []
    base = 0
    for count in counts:
        ranges.append((base, count))
        base += count
    return ranges


class AddressSpacePolicy:
    """ASID mechanics for one structure family (primary + secondary domains).

    The policy tracks one *active* address space and, per named domain, an
    optional per-tenant partition map.  A structure registers one domain per
    set-indexed array -- PDede registers ``"page"`` and ``"region"`` next to
    its ``"main"``, a cache just ``"sets"`` -- and asks three questions:

    * :meth:`configure` -- set or clear a domain's partition map;
    * :meth:`active_slice` -- which ``(base, count)`` range the active tenant
      may touch;
    * :meth:`color_constant` -- which constant to XOR into tags.

    The rest is reporting (:meth:`domain_counts`, :meth:`partition_report`)
    and duplication bookkeeping (:meth:`record_allocation`,
    :meth:`duplication_counts`).  The policy is deliberately mode-agnostic:
    *when* to flush or retag is the adopter's decision (driven by
    :func:`retains_across_switch`).
    """

    __slots__ = ("active_asid", "_domains", "_alloc_distinct", "_alloc_tagged", "_alloc_hot")

    def __init__(self) -> None:
        #: Address-space identifier of the currently scheduled tenant.  Only
        #: relevant under ASID-tagged retention; stays 0 otherwise.
        self.active_asid: int = 0
        # Domain name -> list of (base, count) tenant slices, or None when the
        # domain is shared (including the too-small fallback).  Insertion
        # order is configuration order, which partition_report() preserves.
        self._domains: Dict[str, List[Tuple[int, int]] | None] = {}
        # Duplication accounting: per structure, the distinct raw keys ever
        # allocated and the distinct (asid, key) pairs.  The gap between the
        # two is the storage ASID tagging duplicates when tenants share code
        # (the same branch/page/line living once per address space).
        self._alloc_distinct: Dict[str, set] = {}
        # Per structure, the allocated key sets split by ASID (summed lengths
        # give the tag-distinct count without materializing (asid, key) pairs).
        self._alloc_tagged: Dict[str, Dict[int, set]] = {}
        # Hot-path cache: structure -> (distinct set, active ASID's tagged
        # set), so the per-update bookkeeping is one dict probe and two set
        # adds.  Invalidated by activate().
        self._alloc_hot: Dict[str, tuple] = {}

    # -- active address space ------------------------------------------------

    def activate(self, asid: int) -> None:
        """Switch the address space subsequent operations are attributed to."""
        self.active_asid = asid
        self._alloc_hot.clear()

    # -- the three queries ----------------------------------------------------

    def configure(self, domain: str, total: int, weights: Sequence[int] | None) -> bool:
        """Partition ``domain``'s ``total`` sets/entries by tenant ``weights``.

        ``None`` returns the domain to sharing.  Weights are validated either
        way, and a domain with fewer sets/entries than tenants stays shared
        (still tagged, so sharing is false-hit free and the only cross-tenant
        effect is eviction pressure).  Returns True when the domain was
        partitioned before or is partitioned now -- exactly when the map may
        have changed and the adopter must invalidate.
        """
        was_partitioned = self._domains.get(domain) is not None
        ranges = None
        if weights is not None:
            validate_partition_weights(weights)
            if total >= len(weights):
                ranges = partition_ranges(total, weights)
        self._domains[domain] = ranges
        return was_partitioned or ranges is not None

    def active_slice(self, domain: str, total: int) -> Tuple[int, int]:
        """``(base, count)`` range of the *active* tenant in ``domain``.

        The whole structure, ``(0, total)``, when the domain is shared.  ASID
        ``a`` indexes partition ``a % tenants``: under warm switch semantics
        that is the tenant itself, and under cold semantics every incarnation
        of a tenant lands in the same slice.
        """
        ranges = self._domains.get(domain)
        if ranges is None:
            return 0, total
        return ranges[self.active_asid % len(ranges)]

    def color_constant(self) -> int:
        """The constant XORed into tags under the active ASID.

        Zero for ASID 0 (the identity color).  Tags only: set indexing and
        target recovery (BTB-X offset concatenation, PDede same-page rebuild)
        keep the raw key.  The constant sits far above any 48-bit virtual
        address, so structures that match full tags never see a cross-ASID
        false hit; it may exceed 64 bits for large (cold-semantics) ASIDs,
        and partial-tag structures fold it separately --
        :func:`repro.common.bitutils.fold_xor` is XOR-linear, which makes the
        split exact.
        """
        asid = self.active_asid
        if not asid:
            return 0
        return (asid * ASID_SALT) << ASID_SHIFT

    # -- reporting ------------------------------------------------------------

    def domain_counts(self, domain: str) -> List[int] | None:
        """Sets/entries per tenant in ``domain`` (``None`` when shared)."""
        ranges = self._domains.get(domain)
        if ranges is None:
            return None
        return [count for _, count in ranges]

    def partition_report(self, exclude: Sequence[str] = ()) -> Dict[str, List[int]]:
        """Per-tenant counts of every partitioned domain, configuration order.

        Shared domains (including too-small fallbacks) are omitted, so the
        report is exactly "what is actually partitioned right now".
        """
        report: Dict[str, List[int]] = {}
        for domain, ranges in self._domains.items():
            if ranges is None or domain in exclude:
                continue
            report[domain] = [count for _, count in ranges]
        return report

    # -- duplication accounting ----------------------------------------------

    def record_allocation(self, structure: str, key: object) -> None:
        """Note that ``structure`` was asked to track ``key`` (duplication stats).

        ``key`` identifies the allocated content (a branch PC for main
        structures, a full target page or region number for the deduplication
        structures); the active ASID is folded in automatically.  Called at
        *reference* time -- on every update that wants the content resident --
        not at install time, so the recorded sets are a pure function of the
        update stream: eviction dynamics, partial-tag aliasing and partition
        layouts cannot perturb them.  Pure bookkeeping: never affects
        lookup/update behaviour.
        """
        pair = self._alloc_hot.get(structure)
        if pair is None:
            distinct = self._alloc_distinct.setdefault(structure, set())
            by_asid = self._alloc_tagged.setdefault(structure, {})
            pair = (distinct, by_asid.setdefault(self.active_asid, set()))
            self._alloc_hot[structure] = pair
        pair[0].add(key)
        pair[1].add(key)

    def duplication_counts(self) -> Dict[str, Dict[str, int]]:
        """Distinct vs tag-distinct allocations per structure.

        Maps structure name to ``{"distinct", "tag_distinct", "duplicated"}``:
        ``distinct`` counts unique contents the structure was ever asked to
        track (branch PCs, target pages, regions), ``tag_distinct`` counts
        unique ``(asid, content)`` pairs -- the entries an ASID-tagged
        organization actually has to provide for -- and ``duplicated`` is
        their difference: the capacity spent on storing the *same* content
        once per address space.  Counted over the whole run (warmup
        included): duplication is a footprint property, not a rate, so it is
        deliberately not reset at the measurement boundary.
        """
        counts: Dict[str, Dict[str, int]] = {}
        for structure, distinct in self._alloc_distinct.items():
            tag_distinct = sum(
                len(keys) for keys in self._alloc_tagged[structure].values()
            )
            counts[structure] = {
                "distinct": len(distinct),
                "tag_distinct": tag_distinct,
                "duplicated": tag_distinct - len(distinct),
            }
        return counts


class ASIDCheckpointStore:
    """Bounded per-ASID snapshots of unsharable predictive state.

    Some front-end state cannot be tag-colored because it is positional
    rather than tag-matched -- the return address stack is the example: two
    tenants' call depths interleave, so retention means checkpointing the
    stack per address space and restoring it when the tenant is rescheduled.

    The store is LRU-bounded: cold switch semantics mint a fresh ASID every
    scheduling turn, so without a cap it would grow by one dead entry per
    turn.  An evicted ASID simply resumes with an empty snapshot, like
    hardware with a bounded ASID table.
    """

    __slots__ = ("_checkpoints", "_limit")

    def __init__(self, limit: int = 256) -> None:
        self._checkpoints: Dict[int, list] = {}
        self._limit = limit

    def swap(self, outgoing_asid: int, incoming_asid: int, snapshot: list) -> list:
        """Checkpoint ``outgoing_asid``'s ``snapshot``, restore the incoming one.

        Empty snapshots are not stored (an absent checkpoint already restores
        to empty), and the incoming checkpoint is consumed -- while an address
        space is scheduled its live state is the truth, not the store.
        """
        checkpoints = self._checkpoints
        checkpoints.pop(outgoing_asid, None)
        if snapshot:
            checkpoints[outgoing_asid] = snapshot
            while len(checkpoints) > self._limit:
                checkpoints.pop(next(iter(checkpoints)))
        return checkpoints.pop(incoming_asid, [])

    def __len__(self) -> int:
        return len(self._checkpoints)
