"""Tests for the FTQ, the FDIP prefetcher and the branch prediction unit."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.config import BTBStyle, MachineConfig, default_machine_config
from repro.common.errors import ConfigurationError
from repro.common.stats import Stats
from repro.core.simulator import FrontEndSimulator
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb import base as btb_base
from repro.frontend.bpu import SEQUENTIAL, BranchPredictionUnit, PredictionOutcome
from repro.frontend.fdip import FDIPPrefetcher
from repro.frontend.ftq import FetchTargetQueue
from repro.memory import cache as cache_module
from repro.memory import hierarchy as hierarchy_module
from repro.memory.hierarchy import MemoryHierarchy
from repro.traces.trace import Trace


class TestFTQ:
    def test_capacity_bounded(self):
        ftq = FetchTargetQueue(capacity=4)
        for _ in range(10):
            ftq.push()
        assert ftq.occupancy == ftq.capacity == 4

    def test_flush(self):
        ftq = FetchTargetQueue(capacity=8)
        for _ in range(5):
            ftq.push()
        assert ftq.flush() == 5
        assert ftq.occupancy == 0
        assert ftq.flush() == 0

    @given(
        capacity=st.integers(min_value=1, max_value=200),
        start=st.integers(min_value=0, max_value=200),
        count=st.integers(min_value=0, max_value=400),
    )
    def test_bulk_push_equals_single_pushes_and_saturates(self, capacity, start, count):
        bulk = FetchTargetQueue(capacity=capacity)
        single = FetchTargetQueue(capacity=capacity)
        bulk.push(start)
        single.push(start)
        bulk.push(count)
        for _ in range(count):
            single.push()
        assert bulk.occupancy == single.occupancy == min(capacity, start + count)

    def test_requires_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            FetchTargetQueue(capacity=0)


class TestFDIP:
    def _make(self, enabled=True):
        machine = default_machine_config(fdip_enabled=enabled)
        ftq = FetchTargetQueue(machine.fdip.ftq_instructions)
        return FDIPPrefetcher(machine, ftq), ftq

    def test_lead_grows_with_run_ahead(self):
        fdip, ftq = self._make()
        assert fdip.lead_cycles == 0
        ftq.push(60)
        assert fdip.lead_cycles == 60 // 6

    def test_lead_capped_by_ftq(self):
        fdip, ftq = self._make()
        ftq.push(1000)
        assert fdip.lead_cycles == ftq.capacity // 6

    def test_stream_break_resets_lead(self):
        fdip, ftq = self._make()
        ftq.push(100)
        ftq.flush()
        assert fdip.lead_cycles == 0

    def test_residual_of_covered_and_partly_covered_misses(self):
        fdip, ftq = self._make()
        ftq.push(200)
        lead = fdip.lead_cycles
        assert fdip.cover_demand_miss(lead - 1) == 0
        assert fdip.cover_demand_miss(lead) == 0
        assert fdip.cover_demand_miss(lead + 10) == 10
        assert fdip.cover_demand_miss(0) == 0

    def test_disabled_fdip_hides_nothing(self):
        fdip, ftq = self._make(enabled=False)
        ftq.push(200)
        assert fdip.cover_demand_miss(14) == 14


def _bpu(btb=None, machine: MachineConfig | None = None) -> BranchPredictionUnit:
    machine = machine or default_machine_config(btb_style=BTBStyle.CONVENTIONAL, budget_kib=4.0)
    return BranchPredictionUnit(btb if btb is not None else ConventionalBTB(512), machine)


def _process(bpu: BranchPredictionUnit, instruction: Instruction):
    """Probe ``instruction``'s PC and resolve it, as the simulator's loop does."""
    return bpu.process(instruction, bpu.btb.lookup(instruction.pc))


def _is_taken_btb_miss(prediction) -> bool:
    """The loop's rule: an unidentified flush or resteer is a taken BTB miss."""
    return not prediction.identified_branch and prediction.outcome is not PredictionOutcome.CORRECT


def _is_false_hit(prediction) -> bool:
    """The loop's rule: an identified resteer is a false hit."""
    return prediction.identified_branch and prediction.outcome is PredictionOutcome.DECODE_RESTEER


class TestBPU:
    def test_btb_miss_on_taken_direct_branch_is_decode_resteer(self):
        bpu = _bpu()
        jump = Instruction.branch(0x401000, BranchType.UNCONDITIONAL, True, 0x402000)
        prediction = _process(bpu, jump)
        assert not prediction.identified_branch
        assert _is_taken_btb_miss(prediction)
        assert prediction.outcome is PredictionOutcome.DECODE_RESTEER
        assert prediction.stream_break

    def test_btb_miss_on_not_taken_conditional_is_harmless(self):
        bpu = _bpu()
        branch = Instruction.branch(0x401000, BranchType.CONDITIONAL, False, 0x402000)
        prediction = _process(bpu, branch)
        assert prediction.outcome is PredictionOutcome.CORRECT
        assert not _is_taken_btb_miss(prediction)

    def test_btb_miss_on_indirect_branch_is_execute_flush(self):
        bpu = _bpu()
        indirect = Instruction.branch(0x401000, BranchType.INDIRECT, True, 0x480000)
        prediction = _process(bpu, indirect)
        assert prediction.outcome is PredictionOutcome.EXECUTE_FLUSH

    def test_second_visit_hits_and_is_correct(self):
        bpu = _bpu()
        jump = Instruction.branch(0x401000, BranchType.UNCONDITIONAL, True, 0x402000)
        _process(bpu, jump)
        prediction = _process(bpu, jump)
        assert prediction.identified_branch
        assert prediction.outcome is PredictionOutcome.CORRECT
        assert prediction.predicted_target == jump.target

    def test_returns_use_ras_target(self):
        bpu = _bpu(btb=IdealBTB())
        call = Instruction.branch(0x401000, BranchType.CALL, True, 0x500000)
        ret = Instruction.branch(0x500040, BranchType.RETURN, True, call.fall_through)
        # Visit once so both branches are in the (ideal) BTB, then replay.
        _process(bpu, call)
        _process(bpu, ret)
        _process(bpu, call)
        prediction = _process(bpu, ret)
        assert prediction.identified_branch
        assert prediction.predicted_target == call.fall_through
        assert prediction.outcome is PredictionOutcome.CORRECT

    def test_indirect_target_change_flushes(self):
        bpu = _bpu(btb=IdealBTB())
        first = Instruction.branch(0x401000, BranchType.INDIRECT, True, 0x480000)
        second = Instruction.branch(0x401000, BranchType.INDIRECT, True, 0x490000)
        _process(bpu, first)
        prediction = _process(bpu, second)
        assert prediction.identified_branch
        assert prediction.outcome is PredictionOutcome.EXECUTE_FLUSH

    def test_non_branches_are_correct_and_cheap(self):
        bpu = _bpu()
        prediction = _process(bpu, Instruction.non_branch(0x401000))
        assert prediction.outcome is PredictionOutcome.CORRECT
        assert not prediction.stream_break

    def test_conditional_training_reaches_predictor(self):
        bpu = _bpu(btb=IdealBTB())
        branch_taken = Instruction.branch(0x401000, BranchType.CONDITIONAL, True, 0x401100)
        for _ in range(50):
            _process(bpu, branch_taken)
        prediction = _process(bpu, branch_taken)
        assert prediction.predicted_taken
        assert prediction.outcome is PredictionOutcome.CORRECT

    def test_btb_updated_only_by_taken_branches(self):
        btb = ConventionalBTB(512)
        bpu = _bpu(btb=btb)
        not_taken = Instruction.branch(0x401000, BranchType.CONDITIONAL, False, 0x401100)
        _process(bpu, not_taken)
        assert not btb.lookup(0x401000).hit


def _aliasing_pc(btb: ConventionalBTB, pc: int) -> int:
    """Another PC with ``pc``'s set index and partial tag (a false-hit alias)."""
    located = btb._locate(pc)
    stride = btb.num_sets << btb.isa.alignment_bits
    for step in range(1, 1 << 16):
        candidate = pc + step * stride
        if btb._locate(candidate) == located:
            return candidate
    raise AssertionError("no aliasing PC found")


class TestNonBranchMiss:
    """The BPU still resolves a non-branch miss; the loop never hands it one."""

    def _warm_bpu(self):
        stats = Stats()
        btb = ConventionalBTB(512)
        machine = default_machine_config(btb_style=BTBStyle.CONVENTIONAL, budget_kib=4.0)
        bpu = BranchPredictionUnit(btb, machine, stats)
        jump = Instruction.branch(0x401000, BranchType.UNCONDITIONAL, True, 0x402000)
        call = Instruction.branch(0x402000, BranchType.CALL, True, 0x500000)
        for instruction in (jump, call):
            _process(bpu, instruction)
        return bpu, btb, stats, jump

    def test_non_branch_miss_resolves_to_the_shared_prediction(self):
        bpu, btb, stats, _ = self._warm_bpu()
        counters = stats.counters()
        btb_counters = dict(btb.counters)
        ras = bpu.ras.snapshot()
        resident = sorted(btb._resident_ways())

        prediction = bpu.process(Instruction.non_branch(0x600000), btb_base._MISS_RESULT)

        assert prediction is SEQUENTIAL
        assert prediction.outcome is PredictionOutcome.CORRECT
        assert not prediction.stream_break and not prediction.extra_btb_cycles
        assert stats.counters() == counters
        assert btb.counters == btb_counters
        assert bpu.ras.snapshot() == ras
        assert sorted(btb._resident_ways()) == resident

    def test_aliasing_non_branch_hit_is_still_classified(self):
        bpu, btb, stats, jump = self._warm_bpu()
        alias = Instruction.non_branch(_aliasing_pc(btb, jump.pc))

        prediction = _process(bpu, alias)

        assert prediction is not SEQUENTIAL
        assert prediction.identified_branch and prediction.predicted_taken
        assert prediction.outcome is PredictionOutcome.DECODE_RESTEER
        assert prediction.stream_break
        assert _is_false_hit(prediction)


class TestLoopFastPath:
    """The simulator's loop settles a non-branch miss without the BPU, and only that.

    The trace is a taken jump, then non-branches, one of which aliases the
    jump's lookup key (same set, same partial tag) once the jump is
    resident: the loop must tell that false hit from a miss by the probe's
    result, not by the instruction's branch type.
    """

    def _run(self, monkeypatch):
        btb = ConventionalBTB(512)
        machine = default_machine_config(btb_style=BTBStyle.CONVENTIONAL, budget_kib=4.0)
        simulator = FrontEndSimulator(machine, btb=btb)
        jump = Instruction.branch(0x401000, BranchType.UNCONDITIONAL, True, 0x402000)
        alias = Instruction.non_branch(_aliasing_pc(btb, jump.pc))
        assert btb._locate(alias.pc) == btb._locate(jump.pc)
        instructions = [
            jump, Instruction.non_branch(0x402000), Instruction.non_branch(0x402004), alias,
        ]
        processed = []
        process = simulator.bpu.process

        def spy(instruction, lookup):
            prediction = process(instruction, lookup)
            processed.append((instruction, prediction))
            return prediction

        monkeypatch.setattr(simulator.bpu, "process", spy)
        result = simulator.run(Trace("alias", instructions))
        return result, processed, jump, alias

    def test_only_branches_and_false_hits_reach_the_bpu(self, monkeypatch):
        _, processed, jump, alias = self._run(monkeypatch)
        assert [instruction for instruction, _ in processed] == [jump, alias]

    def test_a_false_hit_on_a_non_branch_is_counted(self, monkeypatch):
        result, processed, _, alias = self._run(monkeypatch)
        assert [instruction for instruction, prediction in processed
                if _is_false_hit(prediction)] == [alias]
        # The jump's first visit misses (decode resteer), and so does the
        # alias; one of the two resteers is no taken BTB miss: the false hit.
        assert result.decode_resteers == 2
        assert result.btb_misses_taken == 1
        assert result.instructions == 4 and result.branches == 1


def _shared_records():
    hierarchy = MemoryHierarchy(default_machine_config())
    records = {
        "bpu.SEQUENTIAL": SEQUENTIAL,
        "btb._MISS_RESULT": btb_base._MISS_RESULT,
        "cache._HIT_RESULT": cache_module._HIT_RESULT,
        "cache._MISS_RESULT": cache_module._MISS_RESULT,
        "hierarchy._L1I_HIT": hierarchy_module._L1I_HIT,
    }
    for level, result in hierarchy._miss_results.items():
        records[f"hierarchy.miss.{level}"] = result
    return records


@pytest.mark.parametrize("name", sorted(_shared_records()))
def test_shared_records_reject_attribute_assignment(name):
    record = _shared_records()[name]
    for attribute in type(record).__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)
