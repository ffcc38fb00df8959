"""Storage accounting and budget-driven sizing of BTB organizations.

This module reproduces the arithmetic behind Tables III and IV and builds
every simulated BTB:

* :class:`BTBStorageModel` -- the storage arithmetic of one ISA (and one
  BTB-X way sizing): BTB-X storage for an entry count (Table III: 224-bit
  sets plus a 1/64-sized companion), how many 64-bit conventional entries fit
  in a budget, and PDede's capacity under the paper's budget split (the
  Page-BTB gets 2.5 KB of every 29 KB, the Region-BTB is fixed at four
  entries, and the Main-BTB entry size depends on the Page-BTB pointer
  width);
* :func:`make_btb_for_budget` -- the one factory: it builds the organization
  a :class:`~repro.common.config.BTBStyle` names, sized for a storage budget.
  A machine's BTB (:class:`~repro.common.config.BTBConfig`) and every
  experiment, scenario and benchmark cell get their BTB from it.

The canonical budgets of the evaluation are those required by 256- to
16K-entry BTB-X configurations: 0.9, 1.8, 3.6, 7.25, 14.5, 29 and 58 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.bitutils import kib_to_bits
from repro.common.config import BTBStyle, ISAStyle
from repro.common.errors import ConfigurationError
from repro.btb.base import MAIN_WAYS, BTBBase
from repro.btb.btbx import BTBX, btbx_set_bits, companion_entries_for, default_way_offsets
from repro.btb.conventional import FULL_TARGET_ENTRY_BITS, ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb.pdede import (
    PAGE_ENTRY_BITS as PDEDE_PAGE_ENTRY_BITS,
    REGION_ENTRY_BITS,
    PDedeBTB,
    pdede_different_page_entry_bits,
    pdede_same_page_entry_bits,
)
from repro.btb.rbtb import PAGE_ENTRY_BITS as RBTB_PAGE_ENTRY_BITS, ReducedBTB, rbtb_main_entry_bits

#: BTB-X entry counts evaluated in the paper (Table III / Figure 11).
CANONICAL_BTBX_ENTRIES: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192, 16384)

#: PDede constants from the paper's budget split (Section VI-B / Table IV).
PDEDE_PAGE_BUDGET_FRACTION = 2.5 / 29.0
PDEDE_REGION_ENTRIES = 4
PDEDE_REGION_STORAGE_KIB = 0.0107
PDEDE_PAGE_ENTRIES_AT_29KIB = 1024


@dataclass(frozen=True)
class BTBStorageRow:
    """One row of the Table III storage breakdown."""

    btbx_entries: int
    companion_entries: int
    num_sets: int
    set_bits: int
    companion_entry_bits: int
    storage_bits: int

    @property
    def storage_kib(self) -> float:
        """Total storage in KiB (the right-hand column of Table III)."""
        return self.storage_bits / 8.0 / 1024.0


@dataclass(frozen=True)
class CapacityRow:
    """One row of Table IV: branch capacity of each organization for a budget."""

    storage_kib: float
    btbx_entries: int
    btbx_companion_entries: int
    pdede_entries: int
    pdede_entry_bits: float
    pdede_page_entries: int
    pdede_page_budget_kib: float
    pdede_main_budget_kib: float
    conventional_entries: int

    @property
    def btbx_total_entries(self) -> int:
        """BTB-X + BTB-XC capacity."""
        return self.btbx_entries + self.btbx_companion_entries

    @property
    def btbx_over_conventional(self) -> float:
        """Capacity ratio of BTB-X over the conventional BTB."""
        return self.btbx_total_entries / self.conventional_entries if self.conventional_entries else 0.0

    @property
    def btbx_over_pdede(self) -> float:
        """Capacity ratio of BTB-X over PDede."""
        return self.btbx_total_entries / self.pdede_entries if self.pdede_entries else 0.0


class BTBStorageModel:
    """Storage arithmetic for every organization at a given ISA flavour.

    ``way_offset_bits`` replaces BTB-X's per-way offset widths (the paper's
    for ``isa`` by default), as the way-sizing ablation does.
    """

    def __init__(
        self, isa: ISAStyle = ISAStyle.ARM64, way_offset_bits: Sequence[int] | None = None
    ) -> None:
        self.isa = isa
        self.way_offset_bits = (
            default_way_offsets(isa) if way_offset_bits is None else tuple(way_offset_bits)
        )

    # -- BTB-X ---------------------------------------------------------------

    def btbx_set_bits(self) -> int:
        """Bits per BTB-X set: 8 entries of metadata plus the offset fields."""
        return btbx_set_bits(self.way_offset_bits)

    def btbx_storage_row(self, btbx_entries: int) -> BTBStorageRow:
        """Table III row for a BTB-X with ``btbx_entries`` entries."""
        ways = len(self.way_offset_bits)
        if btbx_entries <= 0 or btbx_entries % ways != 0:
            raise ConfigurationError(f"BTB-X entries must be a multiple of {ways}")
        num_sets = btbx_entries // ways
        companion_entries = companion_entries_for(btbx_entries)
        storage_bits = num_sets * self.btbx_set_bits() + companion_entries * FULL_TARGET_ENTRY_BITS
        return BTBStorageRow(
            btbx_entries=btbx_entries,
            companion_entries=companion_entries,
            num_sets=num_sets,
            set_bits=self.btbx_set_bits(),
            companion_entry_bits=FULL_TARGET_ENTRY_BITS,
            storage_bits=storage_bits,
        )

    def btbx_budget_kib(self, btbx_entries: int) -> float:
        """Storage budget (KiB) implied by a BTB-X entry count."""
        return self.btbx_storage_row(btbx_entries).storage_kib

    def btbx_capacity_for_budget(self, budget_kib: float) -> tuple[int, int]:
        """Largest (btbx_entries, companion_entries) fitting in ``budget_kib``."""
        ways = len(self.way_offset_bits)
        budget_bits = kib_to_bits(budget_kib)
        sets = 0
        while True:
            candidate = sets + 1
            companion = companion_entries_for(candidate * ways)
            bits = candidate * self.btbx_set_bits() + companion * FULL_TARGET_ENTRY_BITS
            if bits > budget_bits:
                break
            sets = candidate
        entries = sets * ways
        return entries, companion_entries_for(entries) if entries else 0

    # -- Conventional ----------------------------------------------------------

    def conventional_capacity_for_budget(self, budget_kib: float) -> int:
        """Branches a conventional BTB (64-bit entries) can track within ``budget_kib``."""
        return int(kib_to_bits(budget_kib) // FULL_TARGET_ENTRY_BITS)

    # -- PDede -----------------------------------------------------------------

    def pdede_page_entries_for_budget(self, budget_kib: float) -> int:
        """Page-BTB entries for a budget, following the paper's halving rule.

        The paper uses 1024 Page-BTB entries at 29 KB and halves the Page-BTB
        together with the Main-BTB as the budget halves (and doubles it for
        58 KB), keeping the Page-BTB at roughly 8.6 % of the total budget.
        """
        if budget_kib <= 0:
            raise ConfigurationError("storage budget must be positive")
        entries = PDEDE_PAGE_ENTRIES_AT_29KIB * (budget_kib / 29.0)
        # Round to the nearest power of two, minimum 4 entries.
        rounded = 1 << max(round(entries).bit_length() - 1, 2)
        if rounded * 1.5 < entries:
            rounded <<= 1
        # Choose the power of two closest to the exact value.
        lower, upper = rounded, rounded << 1
        return lower if (entries - lower) <= (upper - entries) else upper

    def pdede_entry_bits(self, page_entries: int) -> tuple[int, int, float]:
        """(same-page, different-page, average) Main-BTB entry bits."""
        same = pdede_same_page_entry_bits(self.isa)
        different = pdede_different_page_entry_bits(self.isa, page_entries, PDEDE_REGION_ENTRIES)
        return same, different, (same + different) / 2.0

    def pdede_capacity_for_budget(self, budget_kib: float) -> tuple[int, int, float, float, float]:
        """PDede sizing for a budget.

        Returns ``(main_entries, page_entries, avg_entry_bits, page_budget_kib,
        main_budget_kib)`` following the paper's split: the Page-BTB gets the
        power of two of entries nearest ~8.6 % of the budget and is charged
        its actual bits, the Region-BTB a fixed 0.0107 KB, and the Main-BTB
        the rest.  At the canonical Arm64 budgets the Page-BTB's bits are
        exactly its 8.6 % share.
        """
        page_entries = self.pdede_page_entries_for_budget(budget_kib)
        page_budget_kib = page_entries * PDEDE_PAGE_ENTRY_BITS / 8192
        main_budget_kib = budget_kib - page_budget_kib - PDEDE_REGION_STORAGE_KIB
        _, _, avg_bits = self.pdede_entry_bits(page_entries)
        main_entries = int(kib_to_bits(main_budget_kib) // avg_bits)
        return main_entries, page_entries, avg_bits, page_budget_kib, main_budget_kib

    # -- Table builders ----------------------------------------------------------

    def storage_table(self, entries: Sequence[int] = CANONICAL_BTBX_ENTRIES) -> List[BTBStorageRow]:
        """Reproduce Table III for the given BTB-X entry counts."""
        return [self.btbx_storage_row(count) for count in entries]

    def capacity_table(self, entries: Sequence[int] = CANONICAL_BTBX_ENTRIES) -> List[CapacityRow]:
        """Reproduce Table IV: capacities of all organizations per budget."""
        rows: List[CapacityRow] = []
        for count in entries:
            storage = self.btbx_storage_row(count)
            budget_kib = storage.storage_kib
            pdede_entries, page_entries, avg_bits, page_kib, main_kib = (
                self.pdede_capacity_for_budget(budget_kib)
            )
            rows.append(
                CapacityRow(
                    storage_kib=budget_kib,
                    btbx_entries=storage.btbx_entries,
                    btbx_companion_entries=storage.companion_entries,
                    pdede_entries=pdede_entries,
                    pdede_entry_bits=avg_bits,
                    pdede_page_entries=page_entries,
                    pdede_page_budget_kib=page_kib,
                    pdede_main_budget_kib=main_kib,
                    conventional_entries=self.conventional_capacity_for_budget(budget_kib),
                )
            )
        return rows


# -- the factory -------------------------------------------------------------------

def _require_one_set(style: BTBStyle, budget_kib: float, secondary_bits: float, set_bits: float) -> None:
    """Raise unless ``budget_kib``, less the secondary structures, holds one main set."""
    if kib_to_bits(budget_kib) < secondary_bits + set_bits:
        raise ConfigurationError(
            f"a {budget_kib} KiB budget cannot hold one set of a {style.value} BTB "
            f"(the smallest needs {(secondary_bits + set_bits) / 8192:.4f} KiB)"
        )


def make_btb_for_budget(
    style: BTBStyle,
    budget_kib: float,
    isa: ISAStyle = ISAStyle.ARM64,
    way_offset_bits: Sequence[int] | None = None,
) -> BTBBase:
    """Construct a simulatable BTB of the given style sized for ``budget_kib``.

    A bounded organization gets the whole sets its main array's share of the
    budget holds (the capacity tables report the unrounded entry counts);
    ``way_offset_bits`` replaces BTB-X's per-way offset widths.  A budget
    that cannot hold one set beside the secondary structures raises
    :class:`ConfigurationError`.
    """
    if style is BTBStyle.IDEAL:
        return IdealBTB()
    model = BTBStorageModel(isa, way_offset_bits)
    if style is BTBStyle.BTBX:
        _require_one_set(style, budget_kib, FULL_TARGET_ENTRY_BITS, model.btbx_set_bits())
        entries, companion = model.btbx_capacity_for_budget(budget_kib)
        return BTBX(entries, model.way_offset_bits, companion, isa=isa)
    if style is BTBStyle.CONVENTIONAL:
        _require_one_set(style, budget_kib, 0, MAIN_WAYS * FULL_TARGET_ENTRY_BITS)
        sets = model.conventional_capacity_for_budget(budget_kib) // MAIN_WAYS
        return ConventionalBTB(sets * MAIN_WAYS, isa=isa)
    if style is BTBStyle.REDUCED:
        # R-BTB follows the same budget split as PDede's Page-BTB share.
        page_budget_bits = kib_to_bits(budget_kib * PDEDE_PAGE_BUDGET_FRACTION)
        page_entries = max(int(page_budget_bits // RBTB_PAGE_ENTRY_BITS), 4)
        page_bits = page_entries * RBTB_PAGE_ENTRY_BITS
        set_bits = MAIN_WAYS * rbtb_main_entry_bits(isa, page_entries)
        _require_one_set(style, budget_kib, page_bits, set_bits)
        sets = int((kib_to_bits(budget_kib) - page_bits) // set_bits)
        return ReducedBTB(sets * MAIN_WAYS, page_entries=page_entries, isa=isa)
    if style is BTBStyle.PDEDE:
        entries, page_entries, avg_bits, _, _ = model.pdede_capacity_for_budget(budget_kib)
        secondary_bits = (
            page_entries * PDEDE_PAGE_ENTRY_BITS + PDEDE_REGION_ENTRIES * REGION_ENTRY_BITS
        )
        _require_one_set(style, budget_kib, secondary_bits, MAIN_WAYS * avg_bits)
        return PDedeBTB(
            entries - entries % MAIN_WAYS,
            page_entries=page_entries,
            region_entries=PDEDE_REGION_ENTRIES,
            isa=isa,
        )
    raise ConfigurationError(f"unknown BTB style {style}")
