"""Batched (numpy) execution engine: the fast twin of the scalar simulator.

The scalar loop in :mod:`repro.core.simulator` processes one instruction at a
time and recomputes per-PC quantities -- cache block boundaries, BTB set
indices and partial tags -- that are pure functions of the instruction
stream.  This engine processes one *scheduling chunk*
(a contiguous trace slice with a constant ASID/tenant, see
:meth:`repro.scenarios.compose.TraceComposer.stream_batches`) per step and
vectorizes everything stream-pure over the chunk's structure-of-arrays view:

* cache-block boundaries (``new_block``) via one shifted comparison;
* BTB set indices/partial tags via :func:`repro.btb.base.batch_locate`,
  hoisted per chunk because ASID color and partition slice are constant
  within a scheduling turn;
* a static *guaranteed-miss* filter (:meth:`repro.btb.base.SetAssociativeBTB.batch_plan`)
  marking PCs that provably miss the BTB for the whole chunk -- every BTB
  organization plans its chunks, so this engine has a single walk.

Instructions that are non-branches and guaranteed BTB misses have **no**
observable effect beyond bumping read/miss counters, advancing the FTQ's
occupancy, demand-fetching where they cross a cache-block boundary and
retiring -- so runs of them are compensated in bulk
(``note_skipped_miss_lookups``, one saturating occupancy add per run, piece
counts from numpy) without touching the BPU at all; the walk visits only
their L1-I misses, whose FDIP coverage reads the occupancy.  Every other
instruction is resolved by the walk itself: the BTB probe is the plan's
lookup (the organization's own code, reusing the chunk-vectorized set index
and tag), and the Section VI-A resolution rules and commit-time training of
:class:`~repro.frontend.bpu.BranchPredictionUnit` are applied inline, the
direction predictor going through the piece's commit plan
(:mod:`repro.predictor.batch`).  Allocations stay the organizations' own
``update``.  Like the scalar loop, the engine charges every measured count
itself, the taken BTB misses and mispredictions included.  It is bit-exact
against the oracle loop -- enforced cell-for-cell, over every result field,
the BTB's access reports and the predictor, cache and memory counters, by the
differential backend suite.  Demand fetches of a chunk are pre-executed
front-to-back (:meth:`repro.memory.hierarchy.MemoryHierarchy.fetch_batch`,
which settles L1-I hits in bulk); that is exact because nothing else mutates
the hierarchy within a chunk and nothing between them reads it.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from repro.common.errors import SimulationError
from repro.core.metrics import ScenarioResult
from repro.core.simulator import _Ledger
from repro.isa.branch import BranchType
from repro.predictor.batch import plan_commits
from repro.scenarios.compose import ScheduledChunk
from repro.traces.batch import np, trace_arrays
from repro.traces.trace import Trace

_U64_MASK = 0xFFFFFFFFFFFFFFFF

#: ``TraceArrays.branch_type`` code for conditional branches (enum order).
_CONDITIONAL_CODE = tuple(BranchType).index(BranchType.CONDITIONAL)

_CONDITIONAL = BranchType.CONDITIONAL
_UNCONDITIONAL = BranchType.UNCONDITIONAL
_CALL = BranchType.CALL
_INDIRECT_CALL = BranchType.INDIRECT_CALL
_RETURN = BranchType.RETURN


def run_scenario_batched(
    simulator,
    chunks: Iterable[ScheduledChunk],
    warmup_instructions: int = 0,
    scenario_name: str = "scenario",
) -> ScenarioResult:
    """Batched twin of :meth:`~repro.core.simulator.FrontEndSimulator.run_scenario`.

    Consumes the chunked schedule of
    :meth:`~repro.scenarios.compose.TraceComposer.stream_batches`, which
    covers the identical ``(asid, tenant, instruction)`` sequence the scalar
    loop consumes via :meth:`~repro.scenarios.compose.TraceComposer.stream`.
    """
    engine = _BatchEngine(simulator, warmup_instructions)
    for chunk in chunks:
        engine.process_chunk(chunk)
    engine.emit_metrics()
    return engine.ledger.result(scenario_name)


class _BatchEngine:
    """Mutable state of one batched simulation run.

    Follows the scalar loop of :meth:`~repro.core.simulator.FrontEndSimulator.run_scenario`
    step for step: the warmup flip, ASID switch handling, per-instruction
    prediction/fetch/FDIP/timing order and every measured counter follow the
    oracle exactly -- only the *schedule* of equivalent work differs (bulk
    compensation of guaranteed-miss runs, chunk-ahead demand fetches).
    """

    def __init__(self, simulator, warmup_instructions: int) -> None:
        if warmup_instructions < 0:
            raise SimulationError("warmup length cannot be negative")
        self.sim = simulator
        self.bpu = simulator.bpu
        self.btb = simulator.btb
        self.ftq = simulator.ftq
        self.fdip = simulator.fdip
        self.hierarchy = simulator.hierarchy
        self.core = simulator.machine.core
        self._line_mask_u64 = np.uint64(~(self.hierarchy.line_size() - 1) & _U64_MASK)
        self.warmup = warmup_instructions
        self.position = 0
        self.measuring = warmup_instructions == 0
        self.previous_block: int | None = None
        self.current_asid: int | None = None
        self.current_tenant: str | None = None
        self.ledger = _Ledger(simulator)
        # Fast/slow split telemetry: plain int adds in the hot
        # path, emitted once per run via emit_metrics() so recording is free.
        self.chunks_planned = 0
        self.instructions_fast = 0
        self.instructions_slow = 0

    def emit_metrics(self) -> None:
        """Publish the per-chunk fast/slow split to the active recorder."""
        from repro.obs import get_recorder

        recorder = get_recorder()
        if not recorder.enabled:
            return
        recorder.count("batch.chunks_planned", self.chunks_planned)
        recorder.count("batch.instructions_fast", self.instructions_fast)
        recorder.count("batch.instructions_slow", self.instructions_slow)

    # -- boundaries --------------------------------------------------------

    def _flip_to_measuring(self) -> None:
        """The warmup/measurement boundary, identical to the scalar loop."""
        self.measuring = True
        self.previous_block = None
        self.ledger.start_measuring()

    # -- chunk processing --------------------------------------------------

    def process_chunk(self, chunk: ScheduledChunk) -> None:
        """Run one scheduling chunk, splitting at the warmup boundary.

        ``measuring`` must be constant over a processed piece (the vectorized
        walk accounts a whole piece under one flag), so a chunk straddling the
        boundary is cut in two; the scalar loop flips at exactly the same
        stream position.
        """
        n = len(chunk)
        if n <= 0:
            return
        if not self.measuring and self.position < self.warmup < self.position + n:
            head = self.warmup - self.position
            self._process_piece(chunk, chunk.start, chunk.start + head)
            self._process_piece(chunk, chunk.start + head, chunk.stop)
        else:
            self._process_piece(chunk, chunk.start, chunk.stop)

    def _process_piece(self, chunk: ScheduledChunk, start: int, stop: int) -> None:
        n = stop - start
        if n <= 0:
            return
        if not self.measuring and self.position >= self.warmup:
            self._flip_to_measuring()
        self._enter_chunk_context(chunk)

        arrays = trace_arrays(chunk.trace)
        pcs = arrays.pc[start:stop]
        is_branch = arrays.is_branch[start:stop]
        taken = arrays.taken[start:stop]
        blocks = pcs & self._line_mask_u64
        new_block = np.empty(n, dtype=bool)
        if n > 1:
            new_block[1:] = blocks[1:] != blocks[:-1]
        new_block[0] = self.previous_block is None or int(blocks[0]) != self.previous_block

        # The direction predictor's state evolves only at conditional-branch
        # commits with architectural outcomes, so the whole piece's histories
        # and table indices are precomputable: build the commit plan (after
        # the chunk context -- a FLUSH-mode switch resets the predictor).
        cond_mask = arrays.branch_type[start:stop] == _CONDITIONAL_CODE
        cond_positions = np.flatnonzero(cond_mask)
        dplan = plan_commits(
            self.bpu.direction_predictor, pcs[cond_positions], taken[cond_positions]
        )

        taken_branch_pcs = np.unique(pcs[is_branch & taken])
        plan = self.btb.batch_plan(pcs, taken_branch_pcs)
        self.chunks_planned += 1
        self._run_planned(
            plan, chunk.trace, start, stop, pcs, new_block, is_branch, taken, cond_mask, dplan
        )
        dplan.finish()
        self.previous_block = int(blocks[n - 1])
        self.position += n

    def _enter_chunk_context(self, chunk: ScheduledChunk) -> None:
        """ASID/tenant switch handling, mirroring the run_scenario loop."""
        asid = chunk.asid
        if asid != self.current_asid:
            if self.current_asid is None:
                # Boot: the machine starts owned by the first ASID -- no
                # switch penalty, but tagged structures adopt its color.
                self.bpu.context_switch(asid)
                self.hierarchy.context_switch(asid)
            else:
                if self.measuring:
                    self.ledger.context_switches += 1
                self.bpu.context_switch(asid)
                self.hierarchy.context_switch(asid)
                self.ftq.flush()
                self.previous_block = None
            self.current_asid = asid
            self.current_tenant = None
        if chunk.tenant != self.current_tenant:
            self.current_tenant = chunk.tenant
            self.ledger.enter(chunk.tenant)

    # -- instruction walks -------------------------------------------------

    def _run_planned(
        self, plan, trace: Trace, start: int, stop: int, pcs, new_block,
        is_branch, taken, cond_mask, dplan,
    ) -> None:
        """The planned walk: slow positions and L1-I miss heads only.

        A fast instruction (a guaranteed-miss non-branch) has no scalar
        footprint beyond a proven-miss BTB probe, one FTQ push, a demand
        fetch where it enters a new cache block and, when measuring, its
        share of the piece's counts.  So a gap of fast instructions advances
        a local FTQ occupancy in one step.  The only demand fetches visited
        are the L1-I misses, in a gap or at a slow position alike, each
        covered at the occupancy before its own push, exactly like the scalar
        loop.  Counts that need no per-instruction state (retired
        instructions, branches, L1-I accesses and misses, skipped probes)
        come from numpy once per piece.

        A slow position is resolved here, by the Section VI-A rules of
        :class:`~repro.frontend.bpu.BranchPredictionUnit` and its commit-time
        training, against the plan's lookup: the direction predictor through
        the piece's commit plan (the live predictor only for a false hit
        that merely identifies as conditional), calls
        push and returns pop the RAS, and taken branches train the BTB.  No
        prediction record is built: the taken BTB misses and the direction
        and target mispredictions are summed in locals and charged with the
        piece's other counts.
        """
        n = stop - start
        guaranteed_miss = plan.guaranteed_miss
        fast = guaranteed_miss & ~is_branch
        slow = np.flatnonzero(~fast)
        slow_positions = slow.tolist()
        # Every demand fetch of the piece runs here, front to back; the walk
        # visits only the misses, through a pointer into their positions.
        nb_positions = np.flatnonzero(new_block)
        fetch_results = self.hierarchy.fetch_batch(pcs[nb_positions].tolist())
        missed = [not result.l1i_hit for result in fetch_results]
        miss_results = list(compress(fetch_results, missed))
        miss_heads = list(compress(nb_positions.tolist(), missed))
        miss_heads.append(n)  # sentinel: no head is ever past the piece
        head_ptr = 0
        next_head = miss_heads[0]

        instructions = trace.instructions
        bpu = self.bpu
        predictor = bpu.direction_predictor
        ras = bpu.ras
        btb_update = self.btb.update
        cover = self.fdip.cover_demand_miss
        measuring = self.measuring
        plan_lookup = plan.lookup
        # Per-slow-position columns, gathered once so the walk below reads
        # one zipped tuple per instruction.
        slow_pc = pcs[slow].tolist()
        slow_br = is_branch[slow].tolist()
        slow_cond = cond_mask[slow].tolist()
        # A guaranteed-miss *not-taken* branch is provably conditional (the
        # ISA validates always-taken classes as taken) and resolves CORRECT
        # with no stream break, no RAS movement and no BTB training -- its
        # whole scalar footprint is the direction-predictor commit plus the
        # proven-miss probe counters, so it skips the lookup entirely.
        bf_mask = guaranteed_miss & is_branch & ~taken
        slow_bf = bf_mask[slow].tolist()
        k = -1

        fast_total = n - len(slow_positions)
        self.instructions_fast += fast_total
        self.instructions_slow += len(slow_positions)

        # Accumulators, applied once at the end of the piece.  Every charged
        # count is a commutative sum of integer-valued terms, so batching is
        # bit-exact; the measured ones are charged only when measuring.
        stall_sum = 0.0
        flushes = 0
        resteers = 0
        btb_extra = 0
        btb_miss_taken = 0
        direction_mispredictions = 0
        target_mispredictions = 0
        covered_cnt = 0
        # The FTQ's occupancy lives in a local for the piece; it is written
        # back before every coverage read and at the end.
        ftq = self.ftq
        cap = ftq.capacity
        occ = ftq.occupancy
        width2 = 2 * self.core.fetch_width

        cursor = 0
        for i, pc, is_bf, is_br, is_cond in zip(
            slow_positions, slow_pc, slow_bf, slow_br, slow_cond
        ):
            # Positions cursor..i each push once, every miss head among them
            # covered at the occupancy before its own push.
            while next_head <= i:
                head_occ = occ + (next_head - cursor)
                ftq.occupancy = head_occ if head_occ < cap else cap
                latency = miss_results[head_ptr].latency
                residual = cover(latency)
                stall_sum += residual
                if residual == 0 < latency:
                    covered_cnt += 1
                head_ptr += 1
                next_head = miss_heads[head_ptr]
            occ += i + 1 - cursor
            if occ > cap:
                occ = cap
            cursor = i + 1
            # A conditional branch is the plan's k-th commit.
            if is_cond:
                k += 1
            if is_bf:
                dplan.record_outcome(False, False)
                dplan.update(k)
                continue
            instruction = instructions[start + i]
            actually_taken = instruction.taken
            lookup = plan_lookup(i, pc)
            if lookup.hit:
                # The front end knows the branch type and (usually) its target.
                identified = lookup.branch_type or instruction.branch_type
                if identified is _CONDITIONAL:
                    predicted = dplan.predict(k) if is_cond else predictor.predict(pc)
                else:
                    predicted = True
                if not is_br:
                    # A false hit (partial-tag aliasing) on a non-branch
                    # breaks the stream until decode if predicted taken.
                    if not predicted:
                        continue
                    resteers += 1
                    stream_break = True
                elif predicted != actually_taken:
                    direction_mispredictions += 1
                    flushes += 1
                    stream_break = True
                elif actually_taken and (
                    ras.peek()
                    if lookup.target_from_ras or identified is _RETURN
                    else lookup.target
                ) != instruction.target:
                    # Stale indirect target, RAS mismatch or aliasing.
                    target_mispredictions += 1
                    flushes += 1
                    stream_break = True
                else:
                    stream_break = False
                extra = lookup.latency_cycles - 1 if predicted else 0
            elif actually_taken:
                # A taken branch the front end does not know: decode resteers
                # it when the target is encoded -- unconditional branches and
                # calls always, conditional ones only if predicted taken.
                btb_miss_taken += 1
                branch_type = instruction.branch_type
                if branch_type is _UNCONDITIONAL or branch_type is _CALL or (
                    branch_type is _CONDITIONAL and dplan.predict(k)
                ):
                    resteers += 1
                else:
                    flushes += 1
                predicted = False
                stream_break = True
                extra = 0
            elif is_br:
                # A not-taken conditional branch missing the BTB is harmless.
                predicted = False
                stream_break = False
                extra = 0
            else:
                continue
            # Commit-time training.
            if is_cond:
                dplan.record_outcome(predicted, actually_taken)
                dplan.update(k)
            if actually_taken:
                branch_type = instruction.branch_type
                if branch_type is _CALL or branch_type is _INDIRECT_CALL:
                    ras.push(instruction.fall_through)
                elif branch_type is _RETURN:
                    ras.pop()
                btb_update(instruction)
            if stream_break:
                occ = 0
            if extra and occ < width2:
                btb_extra += extra
        while next_head < n:
            head_occ = occ + (next_head - cursor)
            ftq.occupancy = head_occ if head_occ < cap else cap
            latency = miss_results[head_ptr].latency
            residual = cover(latency)
            stall_sum += residual
            if residual == 0 < latency:
                covered_cnt += 1
            head_ptr += 1
            next_head = miss_heads[head_ptr]
        occ += n - cursor
        ftq.occupancy = occ if occ < cap else cap
        skipped_probes = fast_total + int(np.count_nonzero(bf_mask))
        if skipped_probes:
            self.btb.note_skipped_miss_lookups(skipped_probes)
        if measuring:
            beyond_l2 = sum(1 for result in miss_results if result.level != "L2")
            self.ledger.charge(
                instructions=n, icache_stall_cycles=stall_sum, btb_extra_cycles=btb_extra,
                execute_flushes=flushes, decode_resteers=resteers,
                btb_misses_taken=btb_miss_taken,
                direction_mispredictions=direction_mispredictions,
                target_mispredictions=target_mispredictions,
                branches=int(np.count_nonzero(is_branch)),
                taken_branches=int(np.count_nonzero(is_branch & taken)),
                l1i_accesses=len(nb_positions), l1i_misses=len(miss_results),
                l1i_misses_covered=covered_cnt, l2_misses=beyond_l2,
            )
