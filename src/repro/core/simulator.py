"""The trace-driven front-end simulator.

:class:`FrontEndSimulator` ties every substrate together: for each retired
instruction of a trace it

1. probes the BTB and lets the
   :class:`~repro.frontend.bpu.BranchPredictionUnit` predict and resolve the
   instruction against that lookup (direction prediction, RAS) -- except a
   non-branch the BTB misses, which the loop settles itself, and which a
   single-trace run does not even probe where the probe provably misses;
2. models instruction fetch through the L1-I (one demand access per new cache
   block on the correct path) with FDIP hiding part of the miss latency based
   on the FTQ's run-ahead distance;
3. counts the events the interval model prices (execute flush, decode
   resteer, residual L1-I stall, PDede extra lookup cycle) and the taken BTB
   misses and mispredictions behind them, charged to the tenant whose
   instruction incurred them;
4. applies commit-time updates (direction predictor, RAS, BTB insertion for
   taken branches) -- these happen inside the BPU.

Warmup instructions exercise all structures but do not contribute to the
reported event counts or cycles, mirroring the paper's 50 M warmup / 50 M
measurement protocol (at a smaller scale).
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Iterable, Tuple

from repro.common.config import BTBStyle, MachineConfig, default_machine_config
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.core.metrics import (
    MEASURED_FIELDS,
    PRODUCED,
    ScenarioResult,
    SimulationResult,
    tenant_fields,
)
from repro.frontend.bpu import BranchPredictionUnit, PredictionOutcome
from repro.frontend.fdip import FDIPPrefetcher
from repro.frontend.ftq import FetchTargetQueue
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictor.trajectory import follow_trace
from repro.btb.base import _MISS_RESULT, BTBBase
from repro.btb.storage import make_btb_for_budget
from repro.traces.trace import Trace

_FLUSH = PredictionOutcome.EXECUTE_FLUSH
_RESTEER = PredictionOutcome.DECODE_RESTEER
_NOT_BRANCH = BranchType.NOT_BRANCH


#: A tenant's empty account: a zero of each charged field's kind.
_EMPTY_ACCOUNT = {
    name: kind() for name, kind in MEASURED_FIELDS.items() if PRODUCED[name] == "charged"
}


class _Ledger:
    """The tenant accounts of one run, in scheduling order.

    An account is one dict of a tenant's charged :class:`SimulationResult`
    fields (a single-trace run is one tenant).  Both simulation loops keep
    one ledger and charge their loop-local counts to the current account.
    """

    def __init__(self, simulator: FrontEndSimulator) -> None:
        self.simulator = simulator
        self.accounts: dict[str, dict[str, float]] = {}
        self.current: dict[str, float] | None = None
        self.context_switches = 0

    def start_measuring(self) -> None:
        """The warmup/measurement boundary: the BTB's counters restart from here."""
        self.simulator.btb.reset_stats()

    def charge(self, **counts: float) -> None:
        """Add the loop-local sums of a run of measured instructions.

        The simulation loops count in locals and charge them here, to the
        current account, at the end of a run (and at each tenant switch), each
        count named by its :class:`SimulationResult` field; a field the loops
        do not charge is not in the account and raises :class:`KeyError`.
        Every term is an integer-valued commutative sum, so one charge is
        bit-exact against per-instruction accounting.
        """
        account = self.current
        for name, count in counts.items():
            account[name] += count

    def enter(self, tenant: str) -> None:
        """Make ``tenant``'s account current."""
        account = self.accounts.get(tenant)
        if account is None:
            account = self.accounts[tenant] = dict(_EMPTY_ACCOUNT)
        self.current = account

    def result(self, scenario_name: str) -> ScenarioResult:
        """Package the run's results.

        A tenant's measured fields are its account plus the fields derived
        from it (:func:`~repro.core.metrics.tenant_fields`); the aggregate's
        are the sums over tenants in scheduling order, derived fields
        included, each started at a zero of the field's kind.
        """
        machine = self.simulator.machine
        btb = self.simulator.btb

        def package(workload: str, measured: dict) -> SimulationResult:
            return SimulationResult(
                workload=workload,
                btb_style=btb.name,
                btb_storage_kib=btb.storage_kib(),
                fdip_enabled=machine.fdip.enabled,
                **measured,
            )

        per_tenant = {
            name: package(name, tenant_fields(account, machine.core))
            for name, account in self.accounts.items()
        }

        aggregate = package(
            scenario_name,
            {
                name: sum((getattr(tenant, name) for tenant in per_tenant.values()), kind())
                for name, kind in MEASURED_FIELDS.items()
            },
        )
        cache_asid_mode = machine.cache_asid_mode
        return ScenarioResult(
            scenario=scenario_name,
            asid_mode=machine.asid_mode.value,
            context_switches=self.context_switches,
            aggregate=aggregate,
            per_tenant=per_tenant,
            cache_mode=None if cache_asid_mode is None else cache_asid_mode.value,
        )


class FrontEndSimulator:
    """Simulates the front end of the Table II core over a retired-instruction trace."""

    def __init__(
        self,
        machine: MachineConfig | None = None,
        btb: BTBBase | None = None,
        stats: Stats | None = None,
    ) -> None:
        self.machine = machine if machine is not None else default_machine_config()
        self.stats = stats if stats is not None else Stats()
        if btb is None:
            config = self.machine.btb
            btb = make_btb_for_budget(
                config.style,
                config.budget_kib,
                isa=config.isa,
                way_offset_bits=config.btbx_way_offset_bits,
            )
        self.btb = btb
        self.bpu = BranchPredictionUnit(self.btb, self.machine, self.stats)
        self.hierarchy = MemoryHierarchy(self.machine, self.stats)
        self.ftq = FetchTargetQueue(self.machine.fdip.ftq_instructions)
        self.fdip = FDIPPrefetcher(self.machine, self.ftq)

    # -- simulation --------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        warmup_instructions: int = 0,
        max_instructions: int | None = None,
    ) -> SimulationResult:
        """Simulate ``trace`` and return the measured-phase results.

        ``warmup_instructions`` are simulated first with full structural state
        updates but excluded from every reported metric;
        ``max_instructions`` caps the measured phase (defaults to the rest of
        the trace).

        A single trace is a one-tenant scenario that never switches context,
        so this runs the scenario loop of the machine's backend and returns
        its aggregate, named after the trace.

        On the scalar backend a pristine direction predictor (every weight
        and the history 0, as in a fresh simulator) follows the trace's
        :mod:`~repro.predictor.trajectory` instead of computing its commits:
        the perceptron trains only on the trace's outcomes, so the first run
        of a trace and predictor geometry records it and every later cell
        replays it.  At the end of the run the predictor's tables and
        history are those of a computed run, bit for bit.  A predictor
        trained by an earlier run, or written to directly, computes.

        The scalar backend also skips the BTB probes that provably miss.
        The stream never leaves ASID 0, so once the loop has booted to it,
        the BTB's :meth:`~repro.btb.base.BTBBase.probe_aliases` names the
        non-branch PCs whose key a resident entry or a taken branch of the
        trace can hold; any other non-branch's probe misses, so the loop
        credits it as a read (:meth:`~repro.btb.base.BTBBase.note_skipped_miss_lookups`)
        instead of making it.  Results, counters and BTB state are those of
        a run that probes every PC; an instance-level ``btb.lookup`` wrapper
        sees only the probes that are made.
        """
        if warmup_instructions < 0:
            raise SimulationError("warmup length cannot be negative")
        total = len(trace)
        if max_instructions is not None:
            total = min(total, warmup_instructions + max_instructions)
        if self.machine.backend == "numpy":
            from repro.scenarios.compose import ScheduledChunk

            chunk = ScheduledChunk(asid=0, tenant=trace.name, trace=trace, start=0, stop=total)
            scenario = self.run_scenario_batches((chunk,), warmup_instructions, trace.name)
        else:
            schedule = zip(repeat(0), repeat(trace.name), islice(trace, total))
            predictor = self.bpu.direction_predictor
            follow_trace(predictor, trace)
            try:
                scenario = self.run_scenario(
                    schedule, warmup_instructions, trace.name, _probe_trace=trace
                )
            finally:
                predictor.stop_following()
        return scenario.aggregate

    # -- scenario simulation ------------------------------------------------------

    def run_scenario(
        self,
        schedule: Iterable[Tuple[int, str, Instruction]],
        warmup_instructions: int = 0,
        scenario_name: str = "scenario",
        *,
        _probe_trace: Trace | None = None,
    ) -> ScenarioResult:
        """Simulate a scheduled multi-tenant stream of ``(asid, tenant, instruction)``.

        The stream is consumed exactly once (it is typically a
        :meth:`~repro.scenarios.compose.TraceComposer.stream` generator, never a
        materialized list).  Whenever the ASID changes the simulator performs a
        context switch: the FTQ drains (the front end starts fetching the
        incoming tenant's stream, so FDIP run-ahead restarts from zero) and the
        BPU applies the machine's :class:`~repro.common.config.ASIDMode` --
        flushing BTB/predictor/RAS or retagging/checkpointing them.  Kernel
        scheduling overhead itself is deliberately not charged: the model
        isolates the *microarchitectural* cost of consolidation, which is what
        the BTB study is about.

        This is the scalar oracle loop (:meth:`run` is its one-tenant case).
        It stays fast in pure Python by binding methods at run start (not at
        construction, so instance-level instrumentation installed after the
        simulator is built is honoured), counting measured events in loop
        locals charged through :meth:`_Ledger.charge`, and settling
        the most common instruction itself.  The loop probes the BTB for
        every PC of a scheduled stream; when the probe returns the shared
        miss (:data:`~repro.btb.base._MISS_RESULT`, tested by identity) and
        the instruction is not a branch, the sequential path is correct and
        nothing trains, so the instruction costs the fetch-block check, the
        FTQ push and its retirement count -- no prediction record is built
        or read.  ``_probe_trace`` is :meth:`run`'s private handoff: the
        trace of a one-tenant stream, whose alias set
        (:meth:`~repro.btb.base.BTBBase.probe_aliases`) the loop takes after
        booting to the stream's ASID; a non-branch outside it is not probed
        but counted, and the count is credited to the BTB before the warmup
        boundary resets its counters and at the end.  Branches and false
        hits (non-branches that hit by partial-tag aliasing) go to
        :meth:`~repro.frontend.bpu.BranchPredictionUnit.process` with their
        lookup result; any other miss instance takes that path too and
        still resolves correctly.  Events are attributed to the tenant whose
        instruction incurred them, through one :class:`_Ledger` per run that
        both simulation loops share: the loop-local counts are charged to
        the current tenant's account at every tenant switch and at the end.
        The paper's BTB misses and the direction and target mispredictions
        are read off the prediction record of a flush or resteer: an
        unidentified one is a taken branch the BTB missed, and an identified
        flush is a direction misprediction when the predicted direction was
        wrong and a target misprediction otherwise (an identified resteer is
        a false hit, which no result reports).  A stream that ends inside
        its warmup measures nothing.
        """
        if warmup_instructions < 0:
            raise SimulationError("warmup length cannot be negative")
        line_mask = ~(self.hierarchy.line_size() - 1)
        bpu = self.bpu
        hierarchy = self.hierarchy
        btb = self.btb
        lookup = btb.lookup
        process = bpu.process
        fetch = hierarchy.fetch
        cover = self.fdip.cover_demand_miss
        ftq = self.ftq
        push = ftq.push
        width2 = 2 * self.machine.core.fetch_width

        ledger = _Ledger(self)
        current_asid: int | None = None
        current_tenant: str | None = None

        # Measured-phase counts of the current tenant's run, charged to its
        # account at the next tenant switch and after the loop.
        retired = 0
        stall_sum = 0.0
        flushes = resteers = btb_extra = 0
        btb_misses = direction_misses = target_misses = 0
        branches = taken_branches = 0
        l1i_accesses = l1i_misses = l2_misses = covered_misses = 0

        previous_block = None
        measuring = warmup_instructions == 0
        # The non-branch PCs whose probe may hit (None: probe every PC), and
        # the probes skipped since they were last credited to the BTB.
        aliases = None
        skipped = 0

        for position, (asid, tenant, instruction) in enumerate(schedule):
            if not measuring and position >= warmup_instructions:
                measuring = True
                previous_block = None
                if skipped:
                    btb.note_skipped_miss_lookups(skipped)
                    skipped = 0
                ledger.start_measuring()

            if asid != current_asid:
                if current_asid is None:
                    # The machine boots already owned by the first ASID: no
                    # switch penalty, but tagged BTBs and caches must adopt
                    # its color.
                    bpu.context_switch(asid)
                    hierarchy.context_switch(asid)
                    if _probe_trace is not None:
                        aliases = btb.probe_aliases(_probe_trace)
                else:
                    if measuring:
                        ledger.context_switches += 1
                    bpu.context_switch(asid)
                    hierarchy.context_switch(asid)
                    ftq.flush()
                    previous_block = None
                current_asid = asid
                current_tenant = None
            if tenant != current_tenant:
                if ledger.current is not None:
                    ledger.charge(
                        instructions=retired, icache_stall_cycles=stall_sum,
                        btb_extra_cycles=btb_extra, execute_flushes=flushes,
                        decode_resteers=resteers, btb_misses_taken=btb_misses,
                        direction_mispredictions=direction_misses,
                        target_mispredictions=target_misses, branches=branches,
                        taken_branches=taken_branches, l1i_accesses=l1i_accesses,
                        l1i_misses=l1i_misses, l1i_misses_covered=covered_misses,
                        l2_misses=l2_misses,
                    )
                    retired = flushes = resteers = btb_extra = 0
                    btb_misses = direction_misses = target_misses = 0
                    branches = taken_branches = 0
                    l1i_accesses = l1i_misses = l2_misses = covered_misses = 0
                    stall_sum = 0.0
                current_tenant = tenant
                ledger.enter(tenant)

            pc = instruction.pc
            if instruction.branch_type is not _NOT_BRANCH:
                prediction = process(instruction, lookup(pc))
            elif aliases is None or pc in aliases:
                found = lookup(pc)
                prediction = None if found is _MISS_RESULT else process(instruction, found)
            else:
                skipped += 1
                prediction = None

            block = pc & line_mask
            if block != previous_block:
                previous_block = block
                fetched = fetch(pc)
                if fetched.l1i_hit:
                    if measuring:
                        l1i_accesses += 1
                else:
                    residual = cover(fetched.latency)
                    if measuring:
                        l1i_accesses += 1
                        l1i_misses += 1
                        stall_sum += residual
                        if fetched.level != "L2":
                            l2_misses += 1
                        if residual == 0 < fetched.latency:
                            covered_misses += 1

            push()
            if prediction is None:
                if measuring:
                    retired += 1
                continue
            if prediction.stream_break:
                ftq.flush()

            if measuring:
                retired += 1
                extra = prediction.extra_btb_cycles
                if extra and ftq.occupancy < width2:
                    btb_extra += extra
                outcome = prediction.outcome
                if outcome is _FLUSH:
                    flushes += 1
                    if not prediction.identified_branch:
                        btb_misses += 1
                    elif prediction.predicted_taken != instruction.taken:
                        direction_misses += 1
                    else:
                        target_misses += 1
                elif outcome is _RESTEER:
                    resteers += 1
                    if not prediction.identified_branch:
                        btb_misses += 1
                if instruction.branch_type is not _NOT_BRANCH:
                    branches += 1
                    if instruction.taken:
                        taken_branches += 1

        if skipped:
            btb.note_skipped_miss_lookups(skipped)
        if ledger.current is not None:
            ledger.charge(
                instructions=retired, icache_stall_cycles=stall_sum, btb_extra_cycles=btb_extra,
                execute_flushes=flushes, decode_resteers=resteers, btb_misses_taken=btb_misses,
                direction_mispredictions=direction_misses, target_mispredictions=target_misses,
                branches=branches, taken_branches=taken_branches, l1i_accesses=l1i_accesses,
                l1i_misses=l1i_misses, l1i_misses_covered=covered_misses, l2_misses=l2_misses,
            )
        return ledger.result(scenario_name)

    def run_scenario_batches(
        self,
        chunks,
        warmup_instructions: int = 0,
        scenario_name: str = "scenario",
    ) -> ScenarioResult:
        """Batched twin of :meth:`run_scenario` consuming scheduled chunks.

        ``chunks`` is a :meth:`~repro.scenarios.compose.TraceComposer.stream_batches`
        iterator covering the identical scheduled stream; the numpy engine
        (:mod:`repro.core.batch`) processes a chunk per step and is bit-exact
        against :meth:`run_scenario` on every reported metric.
        """
        from repro.core.batch import run_scenario_batched

        return run_scenario_batched(self, chunks, warmup_instructions, scenario_name)


def simulate_trace(
    trace: Trace,
    btb_style: BTBStyle = BTBStyle.BTBX,
    budget_kib: float = 14.5,
    fdip_enabled: bool = True,
    warmup_fraction: float = 0.2,
    machine: MachineConfig | None = None,
) -> SimulationResult:
    """One-call convenience wrapper used by examples and quick experiments.

    Builds the Table II machine with the requested BTB organization, sized for
    ``budget_kib`` KiB of storage, and FDIP setting, warms up on the first ``warmup_fraction`` of the trace and
    measures the rest.
    """
    if machine is None:
        machine = default_machine_config(
            btb_style=btb_style,
            budget_kib=budget_kib,
            fdip_enabled=fdip_enabled,
            isa=trace.isa,
        )
    simulator = FrontEndSimulator(machine)
    warmup = int(len(trace) * warmup_fraction)
    return simulator.run(trace, warmup_instructions=warmup)
