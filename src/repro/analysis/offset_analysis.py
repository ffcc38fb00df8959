"""Branch target offset distribution analysis (Figures 4, 12 and 13).

Builds the cumulative distribution of *stored* offset bits over the dynamic
branches of one or more traces, exactly as Section III defines it: returns
need 0 bits (their target comes from the RAS), Arm64 drops the two alignment
bits, x86 keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.common.config import ISAStyle
from repro.btb.offsets import instruction_stored_offset_bits
from repro.traces.trace import Trace


@dataclass
class OffsetDistribution:
    """Histogram + CDF of stored offset bit counts over dynamic branches."""

    name: str
    isa: ISAStyle
    histogram: Dict[int, int] = field(default_factory=dict)

    # -- building -----------------------------------------------------------

    def add(self, bits: int, count: int = 1) -> None:
        """Record ``count`` dynamic branches needing ``bits`` stored bits."""
        self.histogram[bits] = self.histogram.get(bits, 0) + count

    def merge(self, other: "OffsetDistribution") -> None:
        """Fold another distribution into this one."""
        for bits, count in other.histogram.items():
            self.add(bits, count)

    # -- queries ------------------------------------------------------------

    @property
    def total_branches(self) -> int:
        """Total dynamic branches observed."""
        return sum(self.histogram.values())

    def fraction_covered(self, max_bits: int) -> float:
        """Fraction of dynamic branches whose offsets fit in ``max_bits`` bits.

        This is the Y value of Figure 4 at X = ``max_bits``.
        """
        total = self.total_branches
        if not total:
            return 0.0
        covered = sum(count for bits, count in self.histogram.items() if bits <= max_bits)
        return covered / total

    def cdf(self, max_bits: int = 46) -> List[float]:
        """The full CDF as a list indexed by bit count (0..max_bits)."""
        return [self.fraction_covered(bits) for bits in range(max_bits + 1)]

    def quantile_bits(self, fraction: float) -> int:
        """Smallest bit count covering at least ``fraction`` of branches."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        for bits in range(0, 64):
            if self.fraction_covered(bits) >= fraction:
                return bits
        return 64

    def way_sizing(self, num_ways: int = 8) -> List[int]:
        """Per-way offset widths sized so each way covers ~1/num_ways of branches.

        This is the methodology of Section V-A: the i-th way is sized at the
        (i+1)/num_ways quantile of the offset distribution.  Used by the
        way-sizing ablation and by the Figure 13 x86 analysis.
        """
        return [self.quantile_bits((i + 1) / num_ways) for i in range(num_ways)]


def offset_distribution(trace: Trace, name: str | None = None) -> OffsetDistribution:
    """Compute the stored-offset-bit distribution of one trace."""
    distribution = OffsetDistribution(name=name or trace.name, isa=trace.isa)
    for inst in trace:
        if not inst.is_branch:
            continue
        distribution.add(instruction_stored_offset_bits(inst, trace.isa))
    return distribution


def combined_distribution(
    traces: Iterable[Trace], name: str = "combined", isa: ISAStyle | None = None
) -> OffsetDistribution:
    """Merge the offset distributions of several traces (suite averages)."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    resolved_isa = isa if isa is not None else traces[0].isa
    combined = OffsetDistribution(name=name, isa=resolved_isa)
    for trace in traces:
        combined.merge(offset_distribution(trace))
    return combined


def distribution_table(
    distributions: Sequence[OffsetDistribution], bit_points: Sequence[int] = (0, 4, 5, 6, 7, 9, 10, 11, 19, 25, 46)
) -> List[dict]:
    """Tabulate several distributions at selected bit counts (for reports)."""
    rows = []
    for dist in distributions:
        row: dict = {"name": dist.name, "branches": dist.total_branches}
        for bits in bit_points:
            row[f"<={bits}b"] = round(dist.fraction_covered(bits), 4)
        rows.append(row)
    return rows
