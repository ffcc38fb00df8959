"""The direction predictor's trajectory replay against the computing predictor.

:meth:`FrontEndSimulator.run` on the scalar backend makes a pristine
perceptron follow the trace's recorded trajectory
(:mod:`repro.predictor.trajectory`).  The one-tenant ``run_scenario`` computes
the predictor at every commit, so a twin simulator driven through it is the
oracle: results, BTB reports, ``Stats`` counters and the predictor's tables
and history must all be equal.  The twin also probes the BTB at every PC,
while ``run`` skips the non-branch probes that ``probe_aliases`` rules out:
a skipped probe that would have hit shows in the BTB reports (its ``hits``)
or in the results.

Every differential cell also counts its *off-trajectory* queries -- a
``predict`` whose PC is not the next commit's, which makes the follower apply
the recorded writes and hash as a computing predictor does -- and requires
some, so the catch-up path is exercised in every organization.  Generated
traces give those queries only where partial tags alias, so each cell's trace
is a generated one with *rewritten code* spliced in twice: non-branches at
the PCs of the conditional branches taken just before, which the BTB still
identifies as conditional.  Those non-branches are aliases of every
organization, so each cell must probe some and skip others.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from itertools import islice, repeat

import pytest

from repro.btb.storage import make_btb_for_budget
from repro.common.config import ASIDMode, BranchPredictorConfig, BTBStyle, default_machine_config
from repro.common.errors import SimulationError
from repro.core.simulator import FrontEndSimulator
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import JsonlRecorder, use_recorder
from repro.predictor import trajectory as trajectories
from repro.predictor.factory import make_direction_predictor
from repro.traces.trace import Trace
from repro.workloads.suites import build_workload, generated_workload_name

INSTRUCTIONS = 6_000
WARMUP = 1_500
BUDGETS_KIB = (0.90625, 3.625, 14.5)
#: Non-branches spliced in per rewritten block.
REWRITTEN = 6


def _rewritten_code(trace: Trace) -> Trace:
    """``trace`` with non-branches at recently taken conditional PCs, twice.

    Each block follows the conditional branches it copies, so the BTB holds
    them as conditional in every organization: one block lands mid-trace,
    the other after the last conditional commit.
    """
    instructions = list(trace)
    middle = len(instructions) // 2

    def block(before):
        taken = [
            inst.pc for inst in before
            if inst.branch_type is BranchType.CONDITIONAL and inst.taken
        ]
        return [Instruction.non_branch(pc) for pc in taken[-REWRITTEN:]]

    head, tail = instructions[:middle], instructions[middle:]
    return Trace(
        trace.name,
        head + block(head) + tail + block(instructions),
        isa=trace.isa,
    )


def _workload(workload_class: str, seed: int, scale: float) -> Trace:
    name = generated_workload_name(workload_class, seed, scale)
    return _rewritten_code(build_workload(name, INSTRUCTIONS))


def _simulator(
    trace: Trace, style: BTBStyle, budget_kib: float, predictor=None, asid_mode=ASIDMode.FLUSH
):
    machine = default_machine_config(
        btb_style=style, isa=trace.isa, asid_mode=asid_mode, backend="python"
    )
    if predictor is not None:
        machine = dataclasses.replace(machine, branch_predictor=predictor)
    return FrontEndSimulator(machine, btb=make_btb_for_budget(style, budget_kib, isa=trace.isa))


class _Probes:
    """The BTB probes a simulator makes and those it credits as skipped misses.

    Counted by instance wrappers, which the loop binds when ``run`` starts.
    """

    def __init__(self, simulator) -> None:
        self.made = self.skipped = 0
        btb = simulator.btb
        lookup, note_skipped = btb.lookup, btb.note_skipped_miss_lookups

        def counting_lookup(pc):
            self.made += 1
            return lookup(pc)

        def counting_skipped(count):
            self.skipped += count
            return note_skipped(count)

        btb.lookup = counting_lookup
        btb.note_skipped_miss_lookups = counting_skipped

    def check(self, instructions, aliased: bool) -> None:
        """Every position probed or skipped once, some skipped; reset the counts.

        Every branch is probed, so probes beyond the branches are aliased
        non-branches; ``aliased`` requires some.
        """
        instructions = list(instructions)
        branches = sum(1 for inst in instructions if inst.is_branch)
        assert self.made + self.skipped == len(instructions)
        assert self.skipped > 0, "no probe was skipped"
        assert self.made >= branches
        if aliased:
            assert self.made > branches, "no aliased non-branch was probed"
        self.made = self.skipped = 0


def _count_off_trajectory(simulator) -> list:
    """Count the predicts the follower serves by catching up, on the instance."""
    predictor = simulator.bpu.direction_predictor
    predict = predictor.predict
    off = [0]

    def counting(pc):
        followed = predictor._trajectory
        if followed is not None and followed.pcs[predictor._commits] != pc:
            off[0] += 1
        return predict(pc)

    predictor.predict = counting
    return off


def _state(simulator):
    predictor = simulator.bpu.direction_predictor
    return (
        dict(simulator.stats.counters()),
        simulator.btb.energy_access_counts(),
        [list(table) for table in predictor._tables],
        predictor._history,
    )


def _assert_follows_like_computing(
    trace, style, budget_kib, max_instructions=None, predictor=None, off_required=True
):
    follower = _simulator(trace, style, budget_kib, predictor)
    off = _count_off_trajectory(follower)
    probes = _Probes(follower)
    result = follower.run(trace, WARMUP, max_instructions)

    twin = _simulator(trace, style, budget_kib, predictor)
    total = len(trace) if max_instructions is None else min(len(trace), WARMUP + max_instructions)
    schedule = zip(repeat(0), repeat(trace.name), islice(trace, total))
    expected = twin.run_scenario(schedule, WARMUP, trace.name).aggregate

    assert follower.bpu.direction_predictor._trajectory is None
    assert result == expected
    assert _state(follower) == _state(twin)
    # A 0.90625 KiB BTB must probe an aliased non-branch once the stream
    # reaches the first rewritten block, in the middle of the trace.
    probes.check(islice(trace, total), budget_kib == 0.90625 and total > len(trace) // 2)
    if off_required:
        assert off[0] > 0, "no off-trajectory query: the catch-up path did not run"
    return off[0]


WORKLOADS = (("server", 11, 2.0), ("server", 29, 0.75), ("client", 5, 1.0))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: "_".join(map(str, w)))
@pytest.mark.parametrize("budget_kib", BUDGETS_KIB)
@pytest.mark.parametrize("style", tuple(BTBStyle), ids=lambda s: s.value)
def test_following_matches_computing(workload, budget_kib, style):
    _assert_follows_like_computing(_workload(*workload), style, budget_kib)


@pytest.mark.parametrize("max_instructions", (0, 1, 700, 2_900, 10_000))
def test_prefixes_match_computing(max_instructions):
    trace = _workload("server", 3, 1.5)
    # Every prefix is served by the one trajectory the first cell recorded.
    for style in (BTBStyle.BTBX, BTBStyle.IDEAL):
        _assert_follows_like_computing(
            trace, style, 0.90625, max_instructions, off_required=max_instructions > 2_900
        )


@pytest.mark.parametrize("style", tuple(BTBStyle), ids=lambda s: s.value)
def test_an_x86_trace_matches_computing(style):
    trace = _workload("xserver", 8, 1.0)
    assert trace.isa.value == "x86"
    _assert_follows_like_computing(trace, style, 0.90625)


@pytest.mark.parametrize(
    "config",
    (
        BranchPredictorConfig(perceptron_history_lengths=(2, 5, 9), perceptron_table_bits=8,
                              perceptron_weight_bits=4),
        BranchPredictorConfig(perceptron_history_lengths=(4, 16, 40, 70), perceptron_table_bits=10,
                              perceptron_weight_bits=12),
    ),
    ids=("narrow", "long-history-wide-weights"),
)
@pytest.mark.parametrize("style", (BTBStyle.CONVENTIONAL, BTBStyle.PDEDE, BTBStyle.IDEAL),
                         ids=lambda s: s.value)
def test_a_non_default_predictor_matches_computing(config, style):
    _assert_follows_like_computing(_workload("server", 17, 1.0), style, 0.90625, predictor=config)


# -- the contract --------------------------------------------------------------


def _trace() -> Trace:
    return _workload("server", 21, 1.0)


def _follows(simulator, trace) -> bool:
    """Whether ``run`` follows: a followed predict never reaches ``_locate``."""
    predictor = simulator.bpu.direction_predictor
    locate = predictor._locate
    located = [0]

    def counting(pc):
        located[0] += 1
        return locate(pc)

    predictor._locate = counting
    simulator.run(trace, WARMUP)
    del predictor._locate
    conditionals = sum(1 for inst in trace if inst.branch_type is BranchType.CONDITIONAL)
    return located[0] < conditionals


def test_a_fresh_simulator_follows():
    trace = _trace()
    assert _follows(_simulator(trace, BTBStyle.CONVENTIONAL, 14.5), trace)


def test_a_second_run_on_one_simulator_computes():
    trace = _trace()
    simulator = _simulator(trace, BTBStyle.CONVENTIONAL, 14.5)
    simulator.run(trace, WARMUP)
    assert not simulator.bpu.direction_predictor.pristine()
    assert not _follows(simulator, trace)


def test_a_predictor_written_to_directly_computes():
    trace = _trace()
    for write in (
        lambda predictor: predictor._tables[3].__setitem__(17, -1),
        lambda predictor: setattr(predictor, "_history", 1),
    ):
        simulator = _simulator(trace, BTBStyle.BTBX, 14.5)
        write(simulator.bpu.direction_predictor)
        assert not _follows(simulator, trace)


def test_only_a_pristine_predictor_can_follow():
    predictor = make_direction_predictor(BranchPredictorConfig())
    trajectory = trajectories.trajectory_for(_trace(), predictor)
    predictor.update(0x400, True)
    with pytest.raises(SimulationError, match="pristine"):
        predictor.follow(trajectory)


def _one_tenant(trace: Trace):
    return zip(repeat(0), repeat(trace.name), trace)


def _revisited(trace: Trace, first: Trace) -> Trace:
    """``trace`` after non-branches at ``first``'s last taken-branch PCs.

    Run after ``first`` on one simulator, those non-branches alias entries
    that ``first`` left resident and that no taken branch of this trace
    installs.
    """
    installed = {inst.pc for inst in trace if inst.taken}
    taken = [pc for pc in dict.fromkeys(inst.pc for inst in first if inst.taken)
             if pc not in installed]
    revisits = [Instruction.non_branch(pc) for pc in taken[-4 * REWRITTEN:]]
    return Trace(f"{trace.name}+revisits", revisits + list(trace), isa=trace.isa)


@pytest.mark.parametrize("style", tuple(BTBStyle), ids=lambda s: s.value)
def test_a_second_run_matches_a_twin_that_computed_both(style):
    """The second run measures from its start, so its revisits' hits count."""
    first = _trace()
    second = _revisited(_workload("server", 23, 1.0), first)
    follower = _simulator(first, style, 0.90625)
    twin = _simulator(first, style, 0.90625)
    probes = _Probes(follower)
    for trace, warmup in ((first, WARMUP), (second, 0)):
        expected = twin.run_scenario(_one_tenant(trace), warmup, trace.name).aggregate
        assert follower.run(trace, warmup) == expected
        assert _state(follower) == _state(twin)
        probes.check(trace, aliased=True)


@pytest.mark.parametrize("mode", tuple(ASIDMode), ids=lambda m: m.value)
@pytest.mark.parametrize("style", tuple(BTBStyle), ids=lambda s: s.value)
def test_a_run_after_a_multi_tenant_stream_matches_computing(style, mode):
    """The run boots back to ASID 0 from the stream's last tenant, then skips."""
    trace = _trace()
    other = _workload("server", 23, 1.0)
    quantum = 500
    stream = [
        (asid, name, inst)
        for start in range(0, 3 * quantum, quantum)
        for asid, name, source in ((0, trace.name, trace), (1, other.name, other))
        for inst in islice(source, start, start + quantum)
    ]
    simulators = []
    for _ in range(2):
        simulator = _simulator(trace, style, 0.90625, asid_mode=mode)
        if mode is ASIDMode.PARTITIONED:
            simulator.btb.configure_partitions((1, 1))
        simulator.run_scenario(iter(stream), 0, "pair")
        simulators.append(simulator)
    follower, twin = simulators
    probes = _Probes(follower)
    expected = twin.run_scenario(_one_tenant(trace), WARMUP, trace.name).aggregate
    assert follower.run(trace, WARMUP) == expected
    assert _state(follower) == _state(twin)
    probes.check(trace, aliased=True)


@pytest.mark.parametrize("style", tuple(BTBStyle), ids=lambda s: s.value)
def test_a_run_that_ends_in_its_warmup_credits_its_skipped_probes(style):
    """Skipped probes count before the next run's warmup boundary reads them."""
    trace = _trace()
    follower = _simulator(trace, style, 0.90625)
    twin = _simulator(trace, style, 0.90625)
    probes = _Probes(follower)
    for warmup in (len(trace), len(trace) + 1, WARMUP):
        expected = twin.run_scenario(_one_tenant(trace), warmup, trace.name).aggregate
        assert follower.run(trace, warmup) == expected
        assert _state(follower) == _state(twin)
        probes.check(trace, aliased=True)


def test_reset_while_following_ends_the_replay():
    trace = _trace()
    computed = make_direction_predictor(BranchPredictorConfig())
    follower = make_direction_predictor(BranchPredictorConfig())
    follower.follow(trajectories.trajectory_for(trace, follower))
    conditionals = [inst for inst in trace if inst.branch_type is BranchType.CONDITIONAL]
    half = len(conditionals) // 2
    for predictor, commits in ((computed, conditionals[half:]), (follower, conditionals)):
        if predictor is computed:
            predictor.reset()
        for position, inst in enumerate(commits):
            if predictor is follower and position == half:
                predictor.reset()
                assert predictor._trajectory is None
            predictor.update(inst.pc, inst.taken)
    assert follower._tables == computed._tables
    assert follower._history == computed._history


def test_an_off_trajectory_update_leaves_the_trajectory_with_the_state_up_to_it():
    trace = _trace()
    conditionals = [inst for inst in trace if inst.branch_type is BranchType.CONDITIONAL]
    computed = make_direction_predictor(BranchPredictorConfig())
    follower = make_direction_predictor(BranchPredictorConfig())
    follower.follow(trajectories.trajectory_for(trace, follower))
    for predictor in (computed, follower):
        for inst in conditionals[:200]:
            predictor.update(inst.pc, inst.taken)
        predictor.update(conditionals[200].pc, not conditionals[200].taken)
    assert follower._trajectory is None
    assert follower._tables == computed._tables
    assert follower._history == computed._history


def test_an_instance_update_wrapper_sees_every_conditional_commit_in_order():
    """An instance-level ``update`` wrapper installed after construction is still called."""
    trace = _trace()
    simulator = _simulator(trace, BTBStyle.CONVENTIONAL, 0.90625)
    predictor = simulator.bpu.direction_predictor
    update = predictor.update
    commits = []

    def recording(pc, taken):
        commits.append((pc, taken))
        return update(pc, taken)

    predictor.update = recording
    simulator.run(trace, WARMUP, 4_000)
    expected = [
        (inst.pc, inst.taken)
        for inst in islice(trace, WARMUP + 4_000)
        if inst.branch_type is BranchType.CONDITIONAL
    ]
    assert commits == expected
    assert predictor._commits == len(expected)


def test_trajectories_are_keyed_per_predictor_geometry():
    trace = _trace()

    def trajectory(**fields):
        predictor = make_direction_predictor(BranchPredictorConfig(**fields))
        return trajectories.trajectory_for(trace, predictor)

    first = trajectory()
    assert trajectory(ras_entries=8) is first
    others = [
        trajectory(perceptron_history_lengths=(3, 8, 14, 21)),
        trajectory(perceptron_table_bits=9),
        trajectory(perceptron_weight_bits=6),
    ]
    assert len({id(first), *map(id, others)}) == 4
    assert trajectory(perceptron_table_bits=9) is others[1]
    default = make_direction_predictor(BranchPredictorConfig())
    assert trajectories.trajectory_for(trace.slice(0, len(trace)), default) is not first


def test_trajectories_are_freed_with_their_trace():
    trace = _trace()
    trajectory = weakref.ref(
        trajectories.trajectory_for(trace, make_direction_predictor(BranchPredictorConfig()))
    )
    assert trajectory() is not None
    del trace
    gc.collect()
    assert trajectory() is None


def test_a_trace_beyond_63_bit_pcs_computes():
    trace = Trace("high", [Instruction.branch(1 << 63, BranchType.CONDITIONAL, True, 0x40)] * 8)
    simulator = _simulator(trace, BTBStyle.CONVENTIONAL, 14.5)
    twin = _simulator(trace, BTBStyle.CONVENTIONAL, 14.5)
    assert simulator.run(trace) == twin.run_scenario(
        zip(repeat(0), repeat(trace.name), trace), 0, trace.name
    ).aggregate
    assert _state(simulator) == _state(twin)


def test_weights_wider_than_the_arrays_compute():
    trace = _trace()
    wide = BranchPredictorConfig(perceptron_table_bits=6, perceptron_weight_bits=65)
    predictor = make_direction_predictor(wide)
    assert trajectories.trajectory_for(trace, predictor) is None
    _assert_follows_like_computing(trace, BTBStyle.CONVENTIONAL, 14.5, predictor=wide,
                                   off_required=False)


def test_each_recording_is_one_span():
    trace = _trace()
    recorder = JsonlRecorder(origin="t")
    with use_recorder(recorder):
        for style in (BTBStyle.CONVENTIONAL, BTBStyle.BTBX):
            _simulator(trace, style, 14.5).run(trace, WARMUP)
    spans = [e for e in recorder.drain() if e["name"] == "predictor.trajectory"]
    (span,) = spans
    conditionals = sum(1 for inst in trace if inst.branch_type is BranchType.CONDITIONAL)
    assert span["attrs"]["trace"] == trace.name
    assert span["attrs"]["commits"] == conditionals
    assert span["attrs"]["writes"] > 0
