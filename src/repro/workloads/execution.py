"""Dynamic execution of a synthetic program into a retired-instruction trace.

:class:`TraceGenerator` walks a :class:`~repro.workloads.cfg.Program` with an
explicit call stack and a seeded random number generator.  The walk starts in
the program's dispatcher function, which models a server request loop: each
iteration indirectly calls one of the root functions (a "request handler"),
waits for it to return, and loops.

The emitted stream is *self-consistent*: the PC of every instruction equals
the architectural next-PC of the one before it, which the front-end simulator
relies on (it rediscovers control flow through the BTB rather than trusting
the trace, exactly like the improved ChampSim of Section VI-A).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.common.errors import WorkloadError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import get_recorder
from repro.traces.trace import Trace
from repro.workloads.cfg import Program, TerminatorKind, build_program
from repro.workloads.spec import WorkloadSpec

_TERMINATOR_TO_BRANCH = {
    TerminatorKind.CONDITIONAL: BranchType.CONDITIONAL,
    TerminatorKind.JUMP: BranchType.UNCONDITIONAL,
    TerminatorKind.CALL: BranchType.CALL,
    TerminatorKind.INDIRECT_CALL: BranchType.INDIRECT_CALL,
    TerminatorKind.RETURN: BranchType.RETURN,
}


class TraceGenerator:
    """Walks a program to emit a dynamic instruction trace.

    Trace records are shared immutable values: every visit to a plain PC, and
    every repeat of a branch with the same outcome and target, appends the
    same :class:`Instruction` object.  Consumers compare records by value and
    never mutate them, so sharing changes nothing but memory and build time.
    """

    def __init__(self, program: Program, seed: int | None = None) -> None:
        self.program = program
        # Derive the walk seed from the spec seed unless overridden, so the
        # same spec always produces the same trace.
        self._seed = program.spec.seed * 1_000_003 + 17 if seed is None else seed

    def generate(self, num_instructions: int, name: str | None = None) -> Trace:
        """Emit ``num_instructions`` retired instructions as a :class:`Trace`."""
        if num_instructions <= 0:
            raise WorkloadError("trace length must be positive")
        program = self.program
        rng = random.Random(self._seed)
        instructions: List[Instruction] = []
        append = instructions.append
        # Interning tables live for this walk only (see the class docstring).
        plain_records: Dict[int, Instruction] = {}
        branch_records: Dict[Tuple[int, bool, int], Instruction] = {}

        def append_branch(pc: int, size: int, branch_type: BranchType, taken: bool,
                          target: int) -> None:
            key = (pc, taken, target)
            record = branch_records.get(key)
            if record is None:
                record = branch_records[key] = Instruction(
                    pc=pc, size=size, branch_type=branch_type, taken=taken, target=target
                )
            append(record)

        dispatcher = program.dispatcher_index
        root_indices = program.root_indices
        root_weights = program.root_weights

        # Call stack of (function_index, resume_block_index, return_pc).
        stack: List[Tuple[int, int, int]] = []
        current_function = dispatcher
        current_block = 0
        max_depth = 0

        functions = program.functions
        while len(instructions) < num_instructions:
            function = functions[current_function]
            block = function.blocks[current_block]

            # Plain (non-branch) instructions of the block.
            pc = block.start_pc
            for size in block.instruction_sizes:
                record = plain_records.get(pc)
                if record is None:
                    record = plain_records[pc] = Instruction(pc=pc, size=size)
                append(record)
                pc += size
                if len(instructions) >= num_instructions:
                    break
            if len(instructions) >= num_instructions:
                break

            kind = block.terminator
            branch_pc = block.terminator_pc
            branch_size = block.terminator_size
            fall_through = branch_pc + branch_size

            if kind is TerminatorKind.CONDITIONAL:
                taken = rng.random() < block.taken_probability
                target_block = function.blocks[block.taken_block]
                # The target field always records the branch's architectural
                # target (where it goes when taken); the not-taken successor is
                # the fall-through, recovered via Instruction.next_pc.
                append_branch(branch_pc, branch_size, BranchType.CONDITIONAL, taken,
                              target_block.start_pc)
                current_block = block.taken_block if taken else current_block + 1
            elif kind is TerminatorKind.JUMP:
                target_block = function.blocks[block.taken_block]
                append_branch(branch_pc, branch_size, BranchType.UNCONDITIONAL, True,
                              target_block.start_pc)
                current_block = block.taken_block
            elif kind is TerminatorKind.CALL or kind is TerminatorKind.INDIRECT_CALL:
                if kind is TerminatorKind.CALL:
                    callee_index = block.callee
                    branch_type = BranchType.CALL
                else:
                    branch_type = BranchType.INDIRECT_CALL
                    if current_function == dispatcher:
                        callee_index = rng.choices(root_indices, weights=root_weights, k=1)[0]
                    else:
                        callee_index = rng.choice(block.callee_candidates)
                callee = functions[callee_index]
                append_branch(branch_pc, branch_size, branch_type, True, callee.entry_pc)
                stack.append((current_function, current_block + 1, fall_through))
                max_depth = max(max_depth, len(stack))
                current_function = callee_index
                current_block = 0
            elif kind is TerminatorKind.RETURN:
                if stack:
                    caller_function, resume_block, return_pc = stack.pop()
                else:
                    # Only reachable if the dispatcher itself returns, which the
                    # builder prevents; restart the request loop defensively.
                    caller_function, resume_block = dispatcher, 0
                    return_pc = functions[dispatcher].blocks[0].start_pc
                append_branch(branch_pc, branch_size, BranchType.RETURN, True, return_pc)
                current_function = caller_function
                current_block = resume_block
            else:  # pragma: no cover - exhaustive enum
                raise WorkloadError(f"unknown terminator {kind}")

        metadata: Dict[str, object] = {
            "workload_class": program.spec.workload_class.value,
            "seed": program.spec.seed,
            "functions": program.num_functions,
            "static_branches": program.static_branch_count(),
            "code_footprint_bytes": program.code_footprint_bytes(),
            "max_call_depth": max_depth,
        }
        return Trace(
            name=name or program.spec.name,
            instructions=instructions[:num_instructions],
            isa=program.isa,
            metadata=metadata,
        )


def generate_trace(
    spec: WorkloadSpec, num_instructions: int, name: str | None = None
) -> Trace:
    """Build the program for ``spec`` and emit a trace of ``num_instructions``."""
    recorder = get_recorder()
    with recorder.span("trace.program", workload=spec.name):
        program = build_program(spec)
    with recorder.span("trace.walk", workload=spec.name, instructions=num_instructions):
        return TraceGenerator(program).generate(num_instructions, name=name)


def verify_trace_consistency(trace: Trace) -> None:
    """Check that each instruction follows architecturally from its predecessor.

    Raises :class:`WorkloadError` on the first inconsistency.  Used by tests
    and available to users converting external traces into the repro format.
    """
    previous: Instruction | None = None
    for position, inst in enumerate(trace):
        if previous is not None and previous.next_pc != inst.pc:
            raise WorkloadError(
                f"instruction {position} at {inst.pc:#x} does not follow "
                f"from {previous.pc:#x} (expected {previous.next_pc:#x})"
            )
        previous = inst
