"""Tests for the calibrated SRAM energy/latency model and the Table V report."""

from __future__ import annotations

import pytest

from repro.common.errors import EnergyModelError
from repro.energy.btb_energy import BTBEnergyModel
from repro.energy.sram import SRAMArray


class TestSRAMArray:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(EnergyModelError):
            SRAMArray("bad", 0, 64)

    def test_calibration_point_conventional(self):
        array = SRAMArray("conv", 1856, 64, associativity=8)
        assert array.read_energy_pj() == pytest.approx(13.2, abs=0.3)
        assert array.write_energy_pj() == pytest.approx(25.2, abs=0.5)
        assert array.access_latency_ns() == pytest.approx(0.36, abs=0.02)

    def test_calibration_point_pdede_page(self):
        array = SRAMArray("page", 512, 20, associativity=16)
        assert array.read_energy_pj() == pytest.approx(0.9, abs=0.3)
        assert array.access_latency_ns() == pytest.approx(0.13, abs=0.03)

    def test_monotonic_in_capacity(self):
        small = SRAMArray("s", 512, 64, associativity=8)
        large = SRAMArray("l", 8192, 64, associativity=8)
        assert large.read_energy_pj() > small.read_energy_pj()
        assert large.access_latency_ns() > small.access_latency_ns()

    def test_floors_for_tiny_arrays(self):
        tiny = SRAMArray("region", 4, 22, associativity=4)
        assert tiny.read_energy_pj() > 0
        assert tiny.write_energy_pj() > 0
        assert tiny.access_latency_ns() > 0

    def test_search_energy_scales_with_entries(self):
        array = SRAMArray("page", 512, 20, associativity=16)
        assert array.search_energy_pj(16) == pytest.approx(6.2, abs=0.3)
        assert array.search_energy_pj(512) > array.search_energy_pj(16)


class TestBTBEnergyModel:
    def test_per_access_ordering_matches_table5(self):
        model = BTBEnergyModel(14.5)
        conv = model.design_energy("conventional").structures["main"]
        pdede = model.design_energy("pdede").structures["main"]
        btbx = model.design_energy("btbx").structures["main"]
        assert conv.read_energy_pj > pdede.read_energy_pj
        assert conv.read_energy_pj > btbx.read_energy_pj
        assert conv.write_energy_pj > btbx.write_energy_pj

    def test_latency_analysis_section6e(self):
        model = BTBEnergyModel(14.5)
        conv = model.design_energy("conventional").lookup_latency_ns
        pdede = model.design_energy("pdede").lookup_latency_ns
        btbx = model.design_energy("btbx").lookup_latency_ns
        # PDede pays the serial Main+Page access; BTB-X is the fastest.
        assert pdede > conv > btbx
        assert pdede == pytest.approx(0.47, abs=0.05)
        assert btbx == pytest.approx(0.33, abs=0.03)

    def test_totals_scale_with_access_counts(self):
        model = BTBEnergyModel(14.5)
        counts = {"reads.main": 1.6e8, "writes.main": 4.36e6}
        report = model.design_energy("conventional", counts)
        # 1.6e8 reads x 13.2 pJ + 4.36e6 writes x 25.2 pJ ~= 2232 uJ (Table V).
        assert report.total_energy_uj == pytest.approx(2232, rel=0.05)

    def test_report_covers_all_three_designs(self):
        report = BTBEnergyModel(14.5).report()
        assert set(report.designs) == {"conventional", "pdede", "btbx"}

    def test_energy_from_simulated_btb(self):
        from repro.btb.storage import make_btb_for_budget
        from repro.common.config import BTBStyle
        from repro.isa.branch import BranchType
        from repro.isa.instruction import Instruction

        btb = make_btb_for_budget(BTBStyle.BTBX, 14.5)
        branch = Instruction.branch(0x401000, BranchType.CONDITIONAL, True, 0x401100)
        btb.update(branch)
        btb.lookup(branch.pc)
        report = BTBEnergyModel(14.5).energy_from_btb(btb)
        assert report.total_energy_uj > 0

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            BTBEnergyModel(14.5).design_energy("mystery")
