"""Interval-based timing model.

Full cycle-accurate simulation of an out-of-order core is neither feasible in
pure Python at trace scale nor necessary for the paper's experiments, which
are dominated by front-end events.  The timing model therefore follows the
classic interval-analysis decomposition: a core with fetch width ``W`` retires
``N`` instructions in ``N / W`` cycles in the absence of disruptions, and each
disruptive event adds a penalty on top:

* an **execute-stage flush** (direction misprediction, wrong target, or a BTB
  miss that decode could not fix) costs the pipeline refill depth;
* a **decode-stage resteer** (taken branch that missed in the BTB but whose
  target was recovered at decode, Section VI-A) costs the shorter
  fetch-to-decode depth;
* an **uncovered L1-I miss** stalls fetch for the residual latency FDIP could
  not hide;
* a **PDede different-page lookup** adds one bubble cycle per taken branch
  that needed the second BTB access cycle (Section VI-E).

The defaults (17-cycle flush, 5-cycle resteer) approximate the Sunny-Cove-like
pipeline of Table II and can be overridden through :class:`CoreConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CoreConfig


@dataclass
class CycleBreakdown:
    """Accumulated cycles, split by cause."""

    base_cycles: float = 0.0
    flush_cycles: float = 0.0
    resteer_cycles: float = 0.0
    icache_stall_cycles: float = 0.0
    btb_extra_cycles: float = 0.0

    @property
    def total(self) -> float:
        """Total cycle count."""
        return (
            self.base_cycles
            + self.flush_cycles
            + self.resteer_cycles
            + self.icache_stall_cycles
            + self.btb_extra_cycles
        )


class TimingModel:
    """Accumulates penalties and converts them into a cycle count."""

    def __init__(self, core: CoreConfig) -> None:
        self.core = core
        self.breakdown = CycleBreakdown()
        self._instructions = 0

    # -- event hooks -----------------------------------------------------------

    def retire_instructions(self, count: int = 1) -> None:
        """Account for ``count`` retired instructions of base throughput."""
        self._instructions += count

    def execute_flush(self, count: int = 1) -> None:
        """Charge ``count`` full pipeline flushes detected at the execute stage."""
        self.breakdown.flush_cycles += self.core.execute_flush_penalty * count

    def decode_resteer(self, count: int = 1) -> None:
        """Charge ``count`` decode-stage resteers (Section VI-A's cheap recovery)."""
        self.breakdown.resteer_cycles += self.core.decode_resteer_penalty * count

    def icache_stall(self, cycles: float) -> None:
        """Charge fetch-stall cycles for an uncovered (part of an) L1-I miss."""
        if cycles > 0:
            self.breakdown.icache_stall_cycles += cycles

    def btb_extra_cycle(self, cycles: int = 1) -> None:
        """Charge extra BTB lookup cycles (PDede's two-cycle accesses)."""
        if cycles > 0:
            self.breakdown.btb_extra_cycles += cycles

    # -- results -----------------------------------------------------------------

    @property
    def instructions(self) -> int:
        """Number of retired instructions accounted so far."""
        return self._instructions

    def finalize(self) -> CycleBreakdown:
        """Compute the base cycles and return the final breakdown."""
        self.breakdown.base_cycles = self._instructions / max(self.core.fetch_width, 1)
        return self.breakdown
