"""In-memory trace container with summary statistics.

A :class:`Trace` is a named, immutable-by-convention sequence of retired
instructions.  It also carries the ISA flavour (needed by the offset analysis:
Arm64 offsets drop the two alignment bits, x86 offsets do not) and arbitrary
metadata describing how the trace was generated (seed, footprint, suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.common.config import ISAStyle
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction

_NOT_BRANCH = BranchType.NOT_BRANCH


@dataclass(frozen=True)
class ProbeSites:
    """The distinct PCs of a trace that decide which BTB probes can hit.

    A BTB is written only for taken branches, so a non-branch's probe can
    hit only where its lookup key equals a taken branch's (or an entry
    already resident).
    """

    non_branch_pcs: Tuple[int, ...]
    taken_branch_pcs: Tuple[int, ...]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of a trace, computed once on demand."""

    instruction_count: int
    branch_count: int
    taken_branch_count: int
    conditional_count: int
    unconditional_count: int
    call_count: int
    return_count: int
    indirect_count: int
    unique_branch_pcs: int
    unique_cache_blocks: int
    instruction_footprint_bytes: int

    @property
    def branch_fraction(self) -> float:
        """Dynamic branches as a fraction of all instructions."""
        if not self.instruction_count:
            return 0.0
        return self.branch_count / self.instruction_count


class Trace:
    """A named sequence of retired instructions plus metadata."""

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        isa: ISAStyle = ISAStyle.ARM64,
        metadata: Dict[str, object] | None = None,
    ) -> None:
        self.name = name
        self.isa = isa
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._instructions: List[Instruction] = list(instructions)
        self._summary: TraceSummary | None = None
        self._probe_sites: ProbeSites | None = None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    @property
    def instructions(self) -> Sequence[Instruction]:
        """The underlying instruction sequence (treat as read-only)."""
        return self._instructions

    # -- derived views -------------------------------------------------------

    def branches(self) -> Iterator[Instruction]:
        """Iterate over only the branch instructions of the trace."""
        return (inst for inst in self._instructions if inst.is_branch)

    def taken_branches(self) -> Iterator[Instruction]:
        """Iterate over only the taken branches of the trace."""
        return (inst for inst in self._instructions if inst.is_branch and inst.taken)

    def slice(self, start: int, stop: int | None = None, name: str | None = None) -> "Trace":
        """Return a new trace covering instructions ``[start, stop)``."""
        piece = self._instructions[start:stop]
        return Trace(
            name or f"{self.name}[{start}:{stop if stop is not None else len(self)}]",
            piece,
            isa=self.isa,
            metadata=dict(self.metadata),
        )

    # -- statistics ----------------------------------------------------------

    def summary(self, line_size: int = 64) -> TraceSummary:
        """Compute (and cache) the aggregate statistics of the trace."""
        if self._summary is not None:
            return self._summary
        branch_count = 0
        taken = 0
        per_type = {bt: 0 for bt in BranchType}
        branch_pcs = set()
        blocks = set()
        for inst in self._instructions:
            blocks.add(inst.pc & ~(line_size - 1))
            if inst.is_branch:
                branch_count += 1
                per_type[inst.branch_type] += 1
                branch_pcs.add(inst.pc)
                if inst.taken:
                    taken += 1
        self._summary = TraceSummary(
            instruction_count=len(self._instructions),
            branch_count=branch_count,
            taken_branch_count=taken,
            conditional_count=per_type[BranchType.CONDITIONAL],
            unconditional_count=per_type[BranchType.UNCONDITIONAL]
            + per_type[BranchType.INDIRECT],
            call_count=per_type[BranchType.CALL] + per_type[BranchType.INDIRECT_CALL],
            return_count=per_type[BranchType.RETURN],
            indirect_count=per_type[BranchType.INDIRECT] + per_type[BranchType.INDIRECT_CALL],
            unique_branch_pcs=len(branch_pcs),
            unique_cache_blocks=len(blocks),
            instruction_footprint_bytes=len(blocks) * line_size,
        )
        return self._summary

    def probe_sites(self) -> ProbeSites:
        """Compute (and cache) the trace's distinct non-branch and taken-branch PCs."""
        if self._probe_sites is None:
            instructions = self._instructions
            self._probe_sites = ProbeSites(
                non_branch_pcs=tuple(
                    {inst.pc for inst in instructions if inst.branch_type is _NOT_BRANCH}
                ),
                taken_branch_pcs=tuple({inst.pc for inst in instructions if inst.taken}),
            )
        return self._probe_sites

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, instructions={len(self)}, isa={self.isa})"


@dataclass
class TraceSet:
    """A named collection of traces forming a workload suite."""

    name: str
    traces: List[Trace] = field(default_factory=list)

    def add(self, trace: Trace) -> None:
        """Append a trace to the suite."""
        self.traces.append(trace)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def names(self) -> List[str]:
        """Names of all member traces, in order."""
        return [trace.name for trace in self.traces]
