"""An ideal (infinite, fully-tagged) BTB.

Baseline ChampSim effectively uses an ideal BTB because it detects branches
from the trace itself (Section VI-A).  The ideal model is useful for upper
bounds, for validating the front-end simulator (an ideal BTB must produce zero
BTB misses after the first visit to each branch), and for ablations.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.base import _MISS_RESULT, BatchPlan, BTBBase, BTBLookupResult, cached_aliases
from repro.traces.trace import Trace


class IdealBTB(BTBBase):
    """Unbounded BTB that never evicts and never aliases."""

    name = "ideal"

    def __init__(self) -> None:
        super().__init__()
        # Keyed by (asid, pc): the ideal BTB discriminates address spaces
        # perfectly, mirroring what tag coloring does for the bounded designs,
        # so partitioned and tagged retention are identical upper bounds (a
        # partition map is validated and otherwise ignored).
        self._entries: Dict[Tuple[int, int], Tuple[BranchType, int]] = {}

    def lookup(self, pc: int) -> BTBLookupResult:
        """Hit whenever the branch has been seen (and committed taken) before."""
        counters = self.counters
        counters["reads.main"] = counters.get("reads.main", 0) + 1
        entry = self._entries.get((self.asid_policy.active_asid, pc))
        if entry is None:
            return _MISS_RESULT
        branch_type, target = entry
        counters["hits"] = counters.get("hits", 0) + 1
        return BTBLookupResult(True, branch_type, target, branch_type.target_from_ras)

    def update(self, instruction: Instruction) -> None:
        """Remember the branch forever."""
        if not instruction.is_branch:
            return
        counters = self.counters
        counters["writes.main"] = counters.get("writes.main", 0) + 1
        self.record_allocation("main", instruction.pc)
        self._entries[(self.active_asid, instruction.pc)] = (
            instruction.branch_type,
            instruction.target,
        )

    def probe_aliases(self, trace: Trace) -> frozenset[int]:
        """The non-branch PCs of ``trace`` that a taken branch or an entry shares.

        A probe hits only on full-PC equality within the active ASID.  The
        taken-branch half is cached per trace; the entries are read anew
        whenever there are any.
        """
        sites = trace.probe_sites()
        pcs = sites.non_branch_pcs
        aliases = cached_aliases(
            trace, ("ideal",), lambda: frozenset(pcs).intersection(sites.taken_branch_pcs)
        )
        entries = self._entries
        if entries:
            asid = self.asid_policy.active_asid
            aliases |= {pc for pc in pcs if (asid, pc) in entries}
        return aliases

    def storage_bits(self) -> int:
        """An ideal BTB has no meaningful storage bound; report current usage."""
        return len(self._entries) * 64

    def capacity_entries(self) -> int:
        """Unbounded; report the number of entries currently stored."""
        return len(self._entries)

    def invalidate_all(self) -> None:
        """Forget everything (context-switch flush)."""
        self._entries.clear()

    def batch_plan(self, pcs, taken_branch_pcs) -> BatchPlan:
        """Guaranteed misses: ``(active_asid, pc)`` not resident, not installable.

        Within a chunk the active ASID is constant and only the chunk's taken
        branches install, so a PC that is neither resident now nor among
        ``taken_branch_pcs`` misses all chunk long.  Residency is probed once
        per distinct PC of the chunk -- O(chunk), never O(resident entries).
        Lookups are the ordinary scalar probe (a dictionary hit needs no
        pre-location).
        """
        from repro.traces.batch import np

        unique, inverse = np.unique(pcs, return_inverse=True)
        asid = self.active_asid
        entries = self._entries
        resident = np.fromiter(
            ((asid, pc) in entries for pc in unique.tolist()), dtype=bool, count=len(unique)
        )
        if len(taken_branch_pcs):
            resident |= np.isin(unique, taken_branch_pcs)
        return BatchPlan(self, ~resident[inverse])

