"""Streaming interleave of per-tenant traces into one scheduled stream.

:class:`TraceComposer` walks the scenario's schedule (round-robin or weighted
round-robin over the tenants, one quantum per turn) once, in
:meth:`TraceComposer.stream_batches`, which yields contiguous
:class:`ScheduledChunk` slices of the tenant traces; :meth:`TraceComposer.stream`
expands those chunks into ``(asid, tenant_name, instruction)`` triples one at
a time.  Nothing about the merged stream is ever materialized: a tenant's
read position is an index into its trace that wraps at the end, so composing
a billion-instruction stream costs the memory of the per-tenant traces and
nothing more.

ASID assignment implements the spec's switch semantics:

* ``warm``: tenant *i* always runs as ASID *i* (the first-scheduled tenant is
  ASID 0, so a single-tenant scenario is indistinguishable from a plain
  single-trace simulation);
* ``cold``: every scheduling turn allocates a fresh ASID (monotonically
  increasing), so no turn can ever re-use retained state -- and under tagged
  retention the dead entries of previous incarnations pollute capacity, which
  is exactly the microservice-churn effect the scenario models.

Consecutive turns of the *same* tenant under ``warm`` semantics keep the same
ASID and therefore cause no context switch (the scheduler just keeps running
the tenant), which is why a one-tenant warm scenario never switches at all.

Shared code footprints (``spec.shared_fraction > 0``) are modelled by a
page-granular remap applied to each tenant's trace before scheduling:

* every tenant's code pages (pages touched by a PC, fall-through or branch
  target) are sorted; the first ``floor(shared_fraction * pages)`` of them --
  the low-address prefix, i.e. the shared-library image -- are remapped by
  rank onto a **shared region**.  Shared regions are scoped *per workload*
  (one slot per distinct binary, in tenant order): tenants running the same
  binary map the same branches at the same shared addresses, while tenants
  running different binaries share nothing -- two unrelated programs do not
  map each other's libraries, and colliding their code would report fake
  "duplication" for content that was never the same;
* the remaining pages are remapped by rank into a **private region** at a
  per-tenant-index stride, so private footprints are disjoint across tenants
  (the historical layout, where every workload image starts at the same base
  address, overlaps them incidentally);
* the remap is order-preserving over each tenant's sorted page set and keeps
  page offsets, so same-page branches stay same-page, branch ordering is
  kept, and call fall-throughs stay consistent with their returns (boundary
  instructions get a stretched ``size`` so ``pc + size`` lands on the next
  mapped page).

With ``shared_fraction == 0.0`` no remap object is ever built and the input
traces are streamed as-is, bit-identical to the historical composer.  The
remap is a pure function of (trace, tenant index, fraction), so composed
streams stay deterministic across processes and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.common.errors import ConfigurationError
from repro.isa.instruction import Instruction
from repro.scenarios.spec import ScenarioSpec
from repro.traces.trace import Trace


@dataclass(frozen=True)
class ScheduledChunk:
    """One contiguous piece of a scheduling turn.

    Covers ``trace.instructions[start:stop]`` run by ``tenant`` under
    ``asid``.  A turn whose read position wraps past the trace end is split
    into multiple chunks so every chunk is a contiguous slice.  Both backends
    consume the schedule as chunks: the scalar one through
    :meth:`TraceComposer.stream`, which expands each chunk's slice, and the
    batched one by indexing straight into the trace's structure-of-arrays
    view.
    """

    asid: int
    tenant: str
    trace: Trace
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

#: 4 KiB pages, matching the page/region granularity of PDede and R-BTB.
PAGE_SHIFT = 12
_PAGE_MASK = (1 << PAGE_SHIFT) - 1

#: Base of shared slot 0 (each distinct workload gets its own shared region,
#: one stride higher per slot).  Below the private bases so the remap is
#: order-preserving (shared pages are each tenant's lowest pages).
SHARED_BASE_PAGE = 0x4000_0000_0000 >> PAGE_SHIFT

#: Pages between consecutive workloads' shared regions (16 GiB of VA each).
SHARED_SLOT_STRIDE_PAGES = (1 << 34) >> PAGE_SHIFT

#: Base of tenant 0's private region; tenant *i* starts ``i`` strides higher.
PRIVATE_BASE_PAGE = 0x6000_0000_0000 >> PAGE_SHIFT

#: Pages between consecutive tenants' private regions (16 GiB of VA each).
PRIVATE_TENANT_STRIDE_PAGES = (1 << 34) >> PAGE_SHIFT

#: Remapped addresses must stay within the modelled 48-bit address space
#: (and every shared slot must stay below the private bases).
_MAX_REMAP_TENANTS = ((1 << 47) - 0x6000_0000_0000) // (1 << 34)


def tenant_code_pages(trace: Trace) -> list[int]:
    """Sorted page numbers touched by the trace (PCs, fall-throughs, targets)."""
    pages = set()
    for instruction in trace:
        pages.add(instruction.pc >> PAGE_SHIFT)
        pages.add(instruction.fall_through >> PAGE_SHIFT)
        if instruction.is_branch:
            pages.add(instruction.target >> PAGE_SHIFT)
    return sorted(pages)


def _source_code_pages(trace: Trace) -> list[int]:
    """:func:`tenant_code_pages` of a remap source, derived once per trace.

    Cached on the trace object next to its ``_remap_cache``: every tenant
    remapped from one source ranks the same page list, so deriving it per
    tenant repeated a full pass over the trace for nothing.
    """
    pages: list[int] | None = getattr(trace, "_code_pages", None)
    if pages is None:
        pages = tenant_code_pages(trace)
        trace._code_pages = pages  # type: ignore[attr-defined]
    return pages


def shared_page_split(page_count: int, shared_fraction: float) -> int:
    """Number of pages of a ``page_count``-page footprint that are shared.

    The floor of ``page_count * shared_fraction`` over the fraction's
    *intended* decimal value: ``Fraction(str(f))`` recovers the shortest
    decimal that reprs to the float, so ``0.7`` of 10 pages is 7, not the 6
    that binary ``0.7 = 0.69999…`` truncates to.  Fractions exact in binary
    (0.5, 0.25, …) are unchanged, which keeps the pinned goldens byte-stable.
    """
    return int(page_count * Fraction(str(shared_fraction)))


#: Per-source-trace bound on memoized remaps (see :func:`cached_remap`): big
#: enough for every (tenant index, fraction, slot) combination a sweep grid
#: replays against one source, small enough that thousand-tenant scenarios
#: (which use thousands of distinct tenant indices) stay bounded in memory.
_REMAP_CACHE_LIMIT = 16


def cached_remap(
    trace: Trace, tenant_index: int, shared_fraction: float, shared_slot: int = 0
) -> Trace:
    """Memoizing wrapper around :func:`remap_tenant_trace`.

    The remap is a pure function of its arguments, so the result is cached on
    the *source* trace object: sweep grids replay the same few (tenant index,
    fraction, slot) combinations against one stored trace across many cells,
    and rebuilding the full instruction list dominated the composer's cost.
    The cache is insertion-order bounded so scenarios with many tenants (every
    tenant index is a distinct key) cannot pin unbounded remapped copies.
    """
    key = (tenant_index, str(shared_fraction), shared_slot)
    cache: Dict[tuple, Trace] | None = getattr(trace, "_remap_cache", None)
    if cache is None:
        cache = {}
        trace._remap_cache = cache  # type: ignore[attr-defined]
    cached = cache.get(key)
    if cached is not None:
        return cached
    remapped = remap_tenant_trace(trace, tenant_index, shared_fraction, shared_slot)
    if len(cache) >= _REMAP_CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = remapped
    return remapped


def remap_tenant_trace(
    trace: Trace, tenant_index: int, shared_fraction: float, shared_slot: int = 0
) -> Trace:
    """Remap ``trace`` for the tenant at ``tenant_index`` (see module docs).

    ``shared_slot`` selects the shared region the tenant's shared prefix lands
    in -- the composer assigns one slot per distinct *workload*, so only
    tenants replaying the same binary coincide.  Pure and deterministic:
    equal arguments always produce an identical trace, and two tenants
    replaying the same workload get identical *shared* mappings (their shared
    prefixes land on the same addresses) while their private pages land in
    disjoint per-tenant windows.

    Trace records are shared immutable values: the source's sorted page list
    is derived once per source trace, and each distinct source record is
    remapped once per call, so every repeat of it in the tenant trace is the
    same remapped :class:`Instruction` object.
    """
    if tenant_index >= _MAX_REMAP_TENANTS or shared_slot >= _MAX_REMAP_TENANTS:
        raise ConfigurationError(
            f"shared-footprint remapping supports at most {_MAX_REMAP_TENANTS} "
            f"tenants/workloads within the 48-bit address space, got "
            f"index {tenant_index} / slot {shared_slot}"
        )
    pages = _source_code_pages(trace)
    shared_count = shared_page_split(len(pages), shared_fraction)
    shared_base = SHARED_BASE_PAGE + shared_slot * SHARED_SLOT_STRIDE_PAGES
    private_base = PRIVATE_BASE_PAGE + tenant_index * PRIVATE_TENANT_STRIDE_PAGES
    page_map: Dict[int, int] = {}
    for rank, page in enumerate(pages):
        if rank < shared_count:
            page_map[page] = shared_base + rank
        else:
            page_map[page] = private_base + (rank - shared_count)

    def remap(address: int) -> int:
        return (page_map[address >> PAGE_SHIFT] << PAGE_SHIFT) | (address & _PAGE_MASK)

    # Keyed by id() of the source record: the source trace keeps every record
    # alive for the whole loop, so no id can be reused while the memo lives.
    remapped: Dict[int, Instruction] = {}
    instructions = []
    append = instructions.append
    for instruction in trace:
        record = remapped.get(id(instruction))
        if record is None:
            pc = remap(instruction.pc)
            # Keep fall-throughs consistent with the remapped return targets:
            # the remap is order-preserving, so the stretched size is always
            # positive.
            size = remap(instruction.fall_through) - pc
            if instruction.is_branch:
                record = Instruction(
                    pc=pc,
                    size=size,
                    branch_type=instruction.branch_type,
                    taken=instruction.taken,
                    target=remap(instruction.target),
                )
            else:
                record = Instruction(pc=pc, size=size)
            remapped[id(instruction)] = record
        append(record)
    metadata = dict(trace.metadata)
    metadata["shared_fraction"] = shared_fraction
    metadata["shared_pages"] = shared_count
    metadata["private_pages"] = len(pages) - shared_count
    return Trace(trace.name, instructions, isa=trace.isa, metadata=metadata)


class TraceComposer:
    """Interleaves per-tenant traces according to a :class:`ScenarioSpec`."""

    def __init__(self, spec: ScenarioSpec, traces: Mapping[str, Trace]) -> None:
        missing = [t.workload for t in spec.tenants if t.workload not in traces]
        if missing:
            raise ConfigurationError(
                f"scenario {spec.name!r} is missing traces for workloads {missing}"
            )
        isas = {traces[t.workload].isa for t in spec.tenants}
        if len(isas) > 1:
            raise ConfigurationError(
                f"scenario {spec.name!r} mixes ISAs {sorted(i.value for i in isas)}; "
                "all tenants must share one ISA"
            )
        empty = sorted({t.workload for t in spec.tenants if len(traces[t.workload]) == 0})
        if empty:
            raise ConfigurationError(
                f"scenario {spec.name!r} has empty traces for workloads {empty}; "
                "every tenant needs at least one instruction to schedule"
            )
        self.spec = spec
        self.isa = next(iter(isas))
        self._traces: Dict[str, Trace] = {t.workload: traces[t.workload] for t in spec.tenants}
        # One trace per tenant, in scheduling order.  With a shared footprint
        # each tenant gets its own remapped copy: tenants replaying the same
        # workload share one shared-region slot (their shared prefixes
        # coincide) but never a private window; with shared_fraction == 0 the
        # input traces are used untouched.
        if spec.shared_fraction > 0.0:
            slots: Dict[str, int] = {}
            for tenant in spec.tenants:
                slots.setdefault(tenant.workload, len(slots))
            self._tenant_traces: List[Trace] = [
                cached_remap(
                    self._traces[tenant.workload],
                    index,
                    spec.shared_fraction,
                    shared_slot=slots[tenant.workload],
                )
                for index, tenant in enumerate(spec.tenants)
            ]
        else:
            self._tenant_traces = [self._traces[tenant.workload] for tenant in spec.tenants]

    def tenant_trace(self, tenant_index: int) -> Trace:
        """The (possibly remapped) trace the given tenant replays."""
        return self._tenant_traces[tenant_index]

    def code_page_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant page accounting of the composed footprint.

        Maps tenant name to ``{"pages", "shared_pages", "private_pages"}``
        computed over the tenant's *replayed* (remapped when shared) trace.
        Walks every tenant trace once, so call it for reports and tests, not
        per instruction.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for tenant, trace in zip(self.spec.tenants, self._tenant_traces):
            pages = tenant_code_pages(trace)
            shared = sum(1 for page in pages if page < PRIVATE_BASE_PAGE)
            if self.spec.shared_fraction <= 0.0:
                # No remap: the historical layout has no shared region.
                shared = 0
            stats[tenant.name] = {
                "pages": len(pages),
                "shared_pages": shared,
                "private_pages": len(pages) - shared,
            }
        return stats

    # -- scheduling ---------------------------------------------------------

    def turn_lengths(self) -> List[int]:
        """Instructions each tenant runs per scheduling turn, in tenant order."""
        return [self.spec.turn_quantum(tenant) for tenant in self.spec.tenants]

    def stream(self, total_instructions: int) -> Iterator[Tuple[int, str, Instruction]]:
        """Yield exactly ``total_instructions`` scheduled ``(asid, tenant, instruction)``.

        The instructions of :meth:`stream_batches`' chunks, in order.  Tenant
        traces wrap when exhausted, so any total length is valid.  The
        schedule is a pure function of the spec and the total length: two
        streams composed from equal specs are element-for-element identical,
        which is what lets scenario cells live in the content-addressed result
        cache.
        """
        for chunk in self.stream_batches(total_instructions):
            asid = chunk.asid
            tenant = chunk.tenant
            for instruction in chunk.trace.instructions[chunk.start:chunk.stop]:
                yield asid, tenant, instruction

    def stream_batches(self, total_instructions: int) -> Iterator[ScheduledChunk]:
        """Yield the schedule of ``total_instructions`` as contiguous trace chunks.

        Turns go round the tenants in order, each running the tenant's
        quantum (the last turn is cut to the remaining length).  Under
        ``warm`` semantics tenant *i* runs as ASID *i*; under ``cold`` every
        turn takes the next fresh ASID.  Each tenant resumes where its
        previous turn stopped, and a turn is split into one more chunk each
        time it wraps past the end of the tenant's trace.
        """
        if total_instructions < 0:
            raise ConfigurationError("composed stream length cannot be negative")
        spec = self.spec
        tenants = spec.tenants
        traces = self._tenant_traces
        positions = [0] * len(tenants)
        quanta = self.turn_lengths()
        cold = spec.switch_semantics == "cold"

        remaining = total_instructions
        turn = 0
        next_cold_asid = 0
        while remaining > 0:
            tenant_index = turn % len(tenants)
            tenant_name = tenants[tenant_index].name
            if cold:
                asid = next_cold_asid
                next_cold_asid += 1
            else:
                asid = tenant_index
            count = min(quanta[tenant_index], remaining)
            trace = traces[tenant_index]
            length = len(trace)
            position = positions[tenant_index]
            left = count
            while left > 0:
                piece = min(left, length - position)
                yield ScheduledChunk(
                    asid=asid,
                    tenant=tenant_name,
                    trace=trace,
                    start=position,
                    stop=position + piece,
                )
                position = (position + piece) % length
                left -= piece
            positions[tenant_index] = position
            remaining -= count
            turn += 1
