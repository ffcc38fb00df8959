"""Tests for the storage model behind Tables III and IV."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.common.bitutils import kib_to_bits
from repro.common.config import BTBStyle, ISAStyle, default_machine_config
from repro.common.errors import ConfigurationError
from repro.btb.btbx import BTBX
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb.pdede import PAGE_ENTRY_BITS, PDedeBTB
from repro.btb.rbtb import ReducedBTB
from repro.btb.storage import (
    CANONICAL_BTBX_ENTRIES,
    PDEDE_REGION_STORAGE_KIB,
    BTBStorageModel,
    make_btb_for_budget,
)
from repro.core.simulator import FrontEndSimulator

PAPER_TABLE3_KIB = (0.90625, 1.8125, 3.625, 7.25, 14.5, 29.0, 58.0)
PAPER_TABLE4_PDEDE = (210, 415, 820, 1617, 3190, 6292, 12405)
PAPER_TABLE4_CONV = (116, 232, 464, 928, 1856, 3712, 7424)
BOUNDED_STYLES = [style for style in BTBStyle if style is not BTBStyle.IDEAL]

#: Budgets between and around the canonical ones, from below one set to 100 KiB.
OFF_CANONICAL_BUDGETS_KIB = (
    0.05, 0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 12.0, 20.0, 40.0, 50.0, 75.0, 100.0
)


class TestTable3:
    def test_set_bits(self):
        assert BTBStorageModel(ISAStyle.ARM64).btbx_set_bits() == 224
        assert BTBStorageModel(ISAStyle.X86).btbx_set_bits() == 230

    @pytest.mark.parametrize("entries,expected_kib", zip(CANONICAL_BTBX_ENTRIES, PAPER_TABLE3_KIB))
    def test_storage_rows_match_paper(self, entries, expected_kib):
        row = BTBStorageModel().btbx_storage_row(entries)
        assert row.storage_kib == pytest.approx(expected_kib)
        assert row.companion_entries == max(entries // 64, 1)

    def test_canonical_budgets(self):
        budgets = [row.storage_kib for row in BTBStorageModel().storage_table()]
        assert budgets == pytest.approx(list(PAPER_TABLE3_KIB))


class TestTable4:
    def test_conventional_capacities_exact(self):
        model = BTBStorageModel()
        for budget, expected in zip(PAPER_TABLE3_KIB, PAPER_TABLE4_CONV):
            assert model.conventional_capacity_for_budget(budget) == expected

    def test_pdede_capacities_close_to_paper(self):
        model = BTBStorageModel()
        for budget, expected in zip(PAPER_TABLE3_KIB, PAPER_TABLE4_PDEDE):
            entries, page_entries, avg_bits, _, _ = model.pdede_capacity_for_budget(budget)
            assert abs(entries - expected) <= 4  # small rounding differences only
            assert page_entries in (32, 64, 128, 256, 512, 1024, 2048)
            assert 31.5 <= avg_bits <= 35.5

    @pytest.mark.parametrize("isa", list(ISAStyle))
    def test_pdede_main_btb_gets_the_whole_remaining_budget(self, isa):
        """The Main-BTB is charged what the Page-BTB and the Region-BTB really
        take, so at every Table IV budget it holds as many average-width
        entries as the rest of the budget fits."""
        model = BTBStorageModel(isa)
        for row in model.capacity_table():
            entries, page_entries, avg_bits, page_kib, _ = model.pdede_capacity_for_budget(
                row.storage_kib
            )
            page_bits = page_entries * PAGE_ENTRY_BITS
            assert page_kib * 8192 == page_bits
            remaining = row.storage_kib * 8192 - page_bits - PDEDE_REGION_STORAGE_KIB * 8192
            assert entries == math.floor(remaining / avg_bits), (isa, row.storage_kib)
            assert row.pdede_entries == entries

    @pytest.mark.parametrize("isa", list(ISAStyle))
    def test_pdede_split_fits_any_budget(self, isa):
        """Off the canonical budgets too, the Page-, Region- and Main-BTB
        shares add up to the budget and the Main-BTB's entries fit its share
        with less than one entry's bits left over."""
        model = BTBStorageModel(isa)
        for budget in OFF_CANONICAL_BUDGETS_KIB:
            entries, _, avg_bits, page_kib, main_kib = model.pdede_capacity_for_budget(budget)
            assert page_kib + PDEDE_REGION_STORAGE_KIB + main_kib == pytest.approx(budget)
            main_bits = kib_to_bits(main_kib)
            assert entries * avg_bits <= main_bits < (entries + 1) * avg_bits, (isa, budget)

    def test_x86_pdede_fills_its_budget(self):
        entries = [row.pdede_entries for row in BTBStorageModel(ISAStyle.X86).capacity_table()]
        assert entries == [202, 401, 794, 1569, 3098, 6113, 12064]

    def test_headline_capacity_ratios(self):
        rows = BTBStorageModel().capacity_table()
        for row in rows:
            assert row.btbx_over_conventional == pytest.approx(2.24, abs=0.02)
        assert rows[0].btbx_over_pdede == pytest.approx(1.24, abs=0.03)
        assert rows[-1].btbx_over_pdede == pytest.approx(1.34, abs=0.03)

    def test_x86_ratio_slightly_lower(self):
        arm = BTBStorageModel(ISAStyle.ARM64).capacity_table()[0].btbx_over_conventional
        x86 = BTBStorageModel(ISAStyle.X86).capacity_table()[0].btbx_over_conventional
        assert x86 < arm
        assert x86 == pytest.approx(2.18, abs=0.02)

    def test_btbx_capacity_for_budget_inverse_of_storage(self):
        model = BTBStorageModel()
        for entries in CANONICAL_BTBX_ENTRIES:
            budget = model.btbx_budget_kib(entries)
            recovered, companion = model.btbx_capacity_for_budget(budget)
            assert recovered == entries
            assert companion == max(entries // 64, 1)


class TestFactories:
    def test_make_btb_for_budget_types(self):
        assert isinstance(make_btb_for_budget(BTBStyle.CONVENTIONAL, 14.5), ConventionalBTB)
        assert isinstance(make_btb_for_budget(BTBStyle.PDEDE, 14.5), PDedeBTB)
        assert isinstance(make_btb_for_budget(BTBStyle.BTBX, 14.5), BTBX)
        assert isinstance(make_btb_for_budget(BTBStyle.REDUCED, 14.5), ReducedBTB)
        assert isinstance(make_btb_for_budget(BTBStyle.IDEAL, 14.5), IdealBTB)

    @pytest.mark.parametrize("isa", list(ISAStyle))
    @pytest.mark.parametrize("style", BOUNDED_STYLES)
    def test_budget_respected(self, style, isa):
        for budget in PAPER_TABLE3_KIB:
            btb = make_btb_for_budget(style, budget, isa=isa)
            assert btb.storage_kib() <= budget, (style, isa, budget)

    @pytest.mark.parametrize("isa", list(ISAStyle))
    @pytest.mark.parametrize("style", BOUNDED_STYLES)
    @pytest.mark.parametrize("budget_kib", OFF_CANONICAL_BUDGETS_KIB)
    def test_any_budget_builds_within_it_or_is_refused(self, style, budget_kib, isa):
        """Off the canonical grid too: PDede's Page-BTB rounds to a power of
        two of entries, which at budgets such as 12 and 100 KiB rounds past its
        share."""
        try:
            btb = make_btb_for_budget(style, budget_kib, isa=isa)
        except ConfigurationError:
            return
        assert btb.storage_bits() <= kib_to_bits(budget_kib), (style, isa, budget_kib)

    @pytest.mark.parametrize("isa", list(ISAStyle))
    @pytest.mark.parametrize(
        "style,budget_kib",
        [
            (BTBStyle.CONVENTIONAL, 0.05),
            (BTBStyle.PDEDE, 0.05),
            (BTBStyle.REDUCED, 0.01),
            (BTBStyle.BTBX, 0.01),
        ],
    )
    def test_a_budget_too_small_for_one_set_is_refused(self, style, budget_kib, isa):
        with pytest.raises(ConfigurationError, match=rf"{budget_kib} KiB .* {style.value} BTB"):
            make_btb_for_budget(style, budget_kib, isa=isa)

    @pytest.mark.parametrize("style", BOUNDED_STYLES)
    def test_the_smallest_budget_builds_one_set(self, style):
        smallest = {
            BTBStyle.CONVENTIONAL: 8 * 64,
            BTBStyle.PDEDE: 4 * 29 + 4 * 32 + 4 * 20 + 4 * 22,
            BTBStyle.REDUCED: 8 * 30 + 4 * 37,
            BTBStyle.BTBX: 224 + 64,
        }[style]
        btb = make_btb_for_budget(style, smallest / 8192)
        assert btb.num_sets == 1
        assert btb.storage_bits() == smallest

    def test_btbx_has_more_entries_than_others_at_same_budget(self):
        conv = make_btb_for_budget(BTBStyle.CONVENTIONAL, 14.5)
        pdede = make_btb_for_budget(BTBStyle.PDEDE, 14.5)
        btbx = make_btb_for_budget(BTBStyle.BTBX, 14.5)
        assert btbx.capacity_entries() > pdede.capacity_entries() > conv.capacity_entries()

    def test_default_btbx_geometry(self):
        btb = make_btb_for_budget(BTBStyle.BTBX, 14.5)
        assert btb.num_sets * btb.associativity == 4096
        assert btb.capacity_entries() == 4096 + 64
        assert btb.storage_bits() == 118_784


class TestOnePath:
    """A machine config's BTB is the one ``make_btb_for_budget`` builds."""

    @pytest.mark.parametrize("isa", list(ISAStyle))
    @pytest.mark.parametrize("style", list(BTBStyle))
    def test_simulator_builds_the_budget_factory_btb(self, style, isa):
        for budget in (0.90625, 14.5):
            machine = default_machine_config(btb_style=style, budget_kib=budget, isa=isa)
            built = FrontEndSimulator(machine).btb
            expected = make_btb_for_budget(style, budget, isa=isa)
            assert type(built) is type(expected)
            assert built.capacity_entries() == expected.capacity_entries()
            assert built.storage_bits() == expected.storage_bits()

    def test_way_widths_reach_the_btb(self):
        widths = (25,) * 8
        machine = default_machine_config(btb_style=BTBStyle.BTBX)
        machine = dataclasses.replace(
            machine, btb=dataclasses.replace(machine.btb, btbx_way_offset_bits=widths)
        )
        btb = FrontEndSimulator(machine).btb
        assert btb.way_offset_bits == widths
        entries, _ = BTBStorageModel(way_offset_bits=widths).btbx_capacity_for_budget(14.5)
        assert btb.num_sets * 8 == entries == 2696
        assert btb.storage_bits() <= 14.5 * 8192
