"""Storage accounting and budget-driven sizing of BTB organizations.

This module reproduces the arithmetic behind Tables III and IV:

* :func:`btbx_storage_bits` / :func:`storage_table` -- BTB-X storage for a
  given entry count (Table III: 224-bit sets plus a 1/64-sized companion);
* :func:`conventional_capacity_for_budget` -- how many 64-bit entries fit in a
  byte budget;
* :func:`pdede_capacity_for_budget` -- PDede's capacity for a budget, using
  the paper's budget split (Page-BTB gets 2.5 KB of every 29 KB, the
  Region-BTB is fixed at four entries, and the Main-BTB entry size depends on
  the Page-BTB pointer width);
* :func:`make_btb` -- construct a simulatable BTB organization that fits a
  given storage budget (used by every MPKI/performance experiment).

The canonical budgets of the evaluation are those required by 256- to
16K-entry BTB-X configurations: 0.9, 1.8, 3.6, 7.25, 14.5, 29 and 58 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.bitutils import kib_to_bits
from repro.common.config import BTBConfig, BTBStyle, ISAStyle
from repro.common.errors import ConfigurationError
from repro.common.stats import Stats
from repro.btb.base import BTBBase
from repro.btb.btbx import BTBX, BTBXC_ENTRY_BITS, btbx_set_bits, default_way_offsets
from repro.btb.conventional import ConventionalBTB, full_target_entry_bits
from repro.btb.ideal import IdealBTB
from repro.btb.pdede import PDedeBTB, pdede_different_page_entry_bits, pdede_same_page_entry_bits
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
    """Storage arithmetic for every organization at a given ISA flavour."""

    def __init__(self, isa: ISAStyle = ISAStyle.ARM64, companion_divisor: int = 64) -> None:
        self.isa = isa
        self.companion_divisor = companion_divisor
        self.way_offset_bits = default_way_offsets(isa)

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
        companion_entries = max(btbx_entries // self.companion_divisor, 1) if self.companion_divisor else 0
        storage_bits = num_sets * self.btbx_set_bits() + companion_entries * BTBXC_ENTRY_BITS
        return BTBStorageRow(
            btbx_entries=btbx_entries,
            companion_entries=companion_entries,
            num_sets=num_sets,
            set_bits=self.btbx_set_bits(),
            companion_entry_bits=BTBXC_ENTRY_BITS,
            storage_bits=storage_bits,
        )

    def btbx_storage_bits(self, btbx_entries: int) -> int:
        """Total BTB-X + BTB-XC storage bits for an entry count."""
        return self.btbx_storage_row(btbx_entries).storage_bits

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
            entries = candidate * ways
            companion = max(entries // self.companion_divisor, 1) if self.companion_divisor else 0
            bits = candidate * self.btbx_set_bits() + companion * BTBXC_ENTRY_BITS
            if bits > budget_bits:
                break
            sets = candidate
        entries = sets * ways
        companion = max(entries // self.companion_divisor, 1) if (self.companion_divisor and entries) else 0
        return entries, companion

    # -- Conventional ----------------------------------------------------------

    def conventional_entry_bits(self) -> int:
        """Entry bits of the conventional BTB: the paper's 64-bit Arm64 entry.

        Table IV (and Section VI-G's x86 ratio) charge the Arm64 figure on
        both ISAs.
        """
        return full_target_entry_bits(ISAStyle.ARM64)

    def conventional_capacity_for_budget(self, budget_kib: float) -> int:
        """Branches a conventional BTB can track within ``budget_kib``."""
        return int(kib_to_bits(budget_kib) // self.conventional_entry_bits())

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
        main_budget_kib)`` following the paper's split: the Page-BTB gets
        ~8.6 % of the budget, the Region-BTB a fixed 0.0107 KB, and the
        Main-BTB the rest.
        """
        page_budget_kib = budget_kib * PDEDE_PAGE_BUDGET_FRACTION
        page_entries = self.pdede_page_entries_for_budget(budget_kib)
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


# -- module-level conveniences ---------------------------------------------------


def storage_table(isa: ISAStyle = ISAStyle.ARM64) -> List[BTBStorageRow]:
    """Table III rows for the default (Arm64) configuration."""
    return BTBStorageModel(isa).storage_table()


def capacity_table(isa: ISAStyle = ISAStyle.ARM64) -> List[CapacityRow]:
    """Table IV rows for the given ISA."""
    return BTBStorageModel(isa).capacity_table()


def btbx_capacity_for_budget(budget_kib: float, isa: ISAStyle = ISAStyle.ARM64) -> tuple[int, int]:
    """(BTB-X entries, BTB-XC entries) fitting within ``budget_kib``."""
    return BTBStorageModel(isa).btbx_capacity_for_budget(budget_kib)


def conventional_capacity_for_budget(budget_kib: float, isa: ISAStyle = ISAStyle.ARM64) -> int:
    """Conventional BTB entries fitting within ``budget_kib``."""
    return BTBStorageModel(isa).conventional_capacity_for_budget(budget_kib)


def pdede_capacity_for_budget(budget_kib: float, isa: ISAStyle = ISAStyle.ARM64) -> tuple[int, int, float, float, float]:
    """PDede sizing for ``budget_kib`` (see :meth:`BTBStorageModel.pdede_capacity_for_budget`)."""
    return BTBStorageModel(isa).pdede_capacity_for_budget(budget_kib)


def canonical_budgets_kib(isa: ISAStyle = ISAStyle.ARM64) -> List[float]:
    """The seven storage budgets of the evaluation (0.9 .. 58 KB)."""
    model = BTBStorageModel(isa)
    return [model.btbx_budget_kib(entries) for entries in CANONICAL_BTBX_ENTRIES]


def _round_down_multiple(value: int, multiple: int) -> int:
    return max((value // multiple) * multiple, multiple)


def make_btb_for_budget(
    style: BTBStyle,
    budget_kib: float,
    isa: ISAStyle = ISAStyle.ARM64,
    stats: Stats | None = None,
) -> BTBBase:
    """Construct a simulatable BTB of the given style sized for ``budget_kib``.

    Entry counts are rounded down to a multiple of the associativity so that
    the structure is constructible; the capacity tables report the exact
    (unrounded) numbers.
    """
    model = BTBStorageModel(isa)
    if style is BTBStyle.CONVENTIONAL:
        entries = model.conventional_capacity_for_budget(budget_kib)
        return ConventionalBTB(_round_down_multiple(entries, 8), associativity=8, isa=isa, stats=stats)
    if style is BTBStyle.BTBX:
        entries, companion = model.btbx_capacity_for_budget(budget_kib)
        divisor = (entries // companion) if companion else 0
        return BTBX(entries, companion_divisor=divisor, isa=isa, stats=stats)
    if style is BTBStyle.PDEDE:
        entries, page_entries, _, _, _ = model.pdede_capacity_for_budget(budget_kib)
        return PDedeBTB(
            _round_down_multiple(entries, 8),
            page_entries=page_entries,
            region_entries=PDEDE_REGION_ENTRIES,
            isa=isa,
            stats=stats,
        )
    if style is BTBStyle.REDUCED:
        # R-BTB follows the same budget split as PDede's Page-BTB share.
        page_budget_bits = kib_to_bits(budget_kib * PDEDE_PAGE_BUDGET_FRACTION)
        page_entries = max(int(page_budget_bits // RBTB_PAGE_ENTRY_BITS), 4)
        main_budget_bits = kib_to_bits(budget_kib) - page_entries * RBTB_PAGE_ENTRY_BITS
        entries = int(main_budget_bits // rbtb_main_entry_bits(isa, page_entries))
        return ReducedBTB(
            _round_down_multiple(entries, 8), page_entries=page_entries, isa=isa, stats=stats
        )
    if style is BTBStyle.IDEAL:
        return IdealBTB(stats=stats)
    raise ConfigurationError(f"unknown BTB style {style}")


def make_btb(config: BTBConfig, stats: Stats | None = None) -> BTBBase:
    """Construct a BTB organization from a :class:`BTBConfig` (entry-count based)."""
    style = config.style
    if style is BTBStyle.CONVENTIONAL:
        return ConventionalBTB(
            config.entries,
            associativity=config.associativity,
            tag_bits=config.tag_bits,
            isa=config.isa,
            stats=stats,
        )
    if style is BTBStyle.BTBX:
        return BTBX(
            config.entries,
            way_offset_bits=config.btbx_way_offset_bits,
            companion_divisor=config.btbx_companion_divisor,
            tag_bits=config.tag_bits,
            isa=config.isa,
            stats=stats,
        )
    if style is BTBStyle.PDEDE:
        page_entries = config.pdede_page_btb_entries
        if page_entries is None:
            model = BTBStorageModel(config.isa)
            budget = config.entries * model.pdede_entry_bits(512)[2] / 8.0 / 1024.0
            page_entries = model.pdede_page_entries_for_budget(max(budget, 0.5))
        return PDedeBTB(
            config.entries,
            page_entries=page_entries,
            region_entries=config.pdede_region_btb_entries,
            associativity=config.associativity,
            page_associativity=config.pdede_page_btb_assoc,
            same_page_way_fraction=config.pdede_same_page_way_fraction,
            tag_bits=config.tag_bits,
            isa=config.isa,
            stats=stats,
        )
    if style is BTBStyle.REDUCED:
        return ReducedBTB(
            config.entries,
            associativity=config.associativity,
            tag_bits=config.tag_bits,
            isa=config.isa,
            stats=stats,
        )
    if style is BTBStyle.IDEAL:
        return IdealBTB(stats=stats)
    raise ConfigurationError(f"unknown BTB style {style}")
