"""Workload specification: the tunable parameters of the synthetic generator.

A :class:`WorkloadSpec` fully determines a synthetic program and, together with
an instruction budget and a seed, the dynamic trace generated from it.  The
defaults for the two workload classes are calibrated so that:

* the dynamic branch mix is roughly 55 % conditional, 20 % return, 20 % call
  and 5 % unconditional/indirect (matching the paper's observation that
  conditional branches dominate and ~20 % of dynamic branches are returns);
* the branch target offset CDF matches Figure 4 (≈54 % of branches need <= 6
  stored bits, ≈22 % need 7-10, ≈23 % need 11-25, and ≈1 % need more);
* server workloads have branch working sets far larger than a few thousand
  BTB entries, while client working sets fit comfortably.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.common.config import ISAStyle
from repro.common.errors import WorkloadError


class WorkloadClass(enum.Enum):
    """High-level class of a synthetic workload."""

    SERVER = "server"
    CLIENT = "client"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload.

    Attributes are grouped into *static program shape* (modules, functions,
    block/function sizes, call-graph locality) and *dynamic behaviour* (branch
    biases, loop trip counts, library-call frequency).
    """

    name: str
    workload_class: WorkloadClass
    isa: ISAStyle = ISAStyle.ARM64
    seed: int = 0

    # --- static program shape -------------------------------------------
    num_modules: int = 4
    functions_per_module: int = 500
    # Library modules hold shared-library-like code mapped far away in the
    # address space; calls into them create the long-offset tail.
    num_library_modules: int = 2
    library_functions_per_module: int = 60
    # Function size in basic blocks (uniform in [min, max]).
    min_blocks_per_function: int = 3
    max_blocks_per_function: int = 12
    # Plain (non-branch) instructions per basic block (uniform in [min, max]).
    min_block_instructions: int = 2
    max_block_instructions: int = 6
    # Call-graph depth: a function at level i only calls functions at deeper
    # levels, bounding dynamic call depth by ``call_levels``.
    call_levels: int = 7
    # Gap between consecutive application modules (bytes); libraries are
    # placed ``library_gap_bytes`` away from the application image.
    module_gap_bytes: int = 1 << 22
    library_gap_bytes: int = 1 << 25
    base_address: int = 0x0000_0000_0040_0000

    # --- dynamic behaviour ------------------------------------------------
    # Probability that an interior basic block ends in each terminator kind.
    conditional_fraction: float = 0.38
    call_fraction: float = 0.46
    jump_fraction: float = 0.10
    indirect_fraction: float = 0.06
    # Probability that a conditional branch is a backward (loop) branch.
    loop_branch_fraction: float = 0.10
    # Taken probability of forward conditional branches.
    forward_taken_probability: float = 0.42
    # Taken probability of backward (loop) conditional branches.
    loop_taken_probability: float = 0.85
    # Fraction of forward conditional branch *sites* that are strongly biased
    # (almost always or almost never taken).  Real branches are highly
    # predictable; without this the direction predictor would be swamped by
    # coin-flip branches and its mispredictions would mask every BTB effect.
    predictable_branch_fraction: float = 0.90
    # Call-site distance classes (fractions of call sites; must sum to <= 1,
    # the remainder defaults to the neighbour class).  These drive the
    # medium/long tail of the offset distribution (Figure 4):
    #   neighbour  -> callee laid out within a few KB       (~7-12 bit offsets)
    #   module     -> anywhere in the caller's module       (~12-19 bits)
    #   cross      -> another application module            (~20-23 bits)
    #   library    -> shared library ~32 MB away            (~24-25 bits)
    #   far library-> library in the high canonical region  (> 25 bits, ~1 %)
    neighbor_call_fraction: float = 0.52
    module_call_fraction: float = 0.30
    cross_module_call_fraction: float = 0.10
    library_call_fraction: float = 0.06
    far_library_call_fraction: float = 0.02
    # Window (in function indices) that counts as a "neighbour" callee.
    neighbor_window: int = 12
    # Number of root (level-0) functions a dispatcher iteration may invoke.
    root_fan_out: int = 64
    # Concentration of the request mix: 1.0 = uniform over roots, higher
    # values skew towards a few hot roots (client-like reuse).
    root_skew: float = 1.0

    def __post_init__(self) -> None:
        fractions = (
            self.conditional_fraction,
            self.call_fraction,
            self.jump_fraction,
            self.indirect_fraction,
        )
        if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
            raise WorkloadError(
                f"{self.name}: terminator fractions must be non-negative and sum to <= 1"
            )
        call_classes = (
            self.neighbor_call_fraction,
            self.module_call_fraction,
            self.cross_module_call_fraction,
            self.library_call_fraction,
            self.far_library_call_fraction,
        )
        if any(f < 0 for f in call_classes) or sum(call_classes) > 1.0 + 1e-9:
            raise WorkloadError(
                f"{self.name}: call distance-class fractions must be non-negative and sum to <= 1"
            )
        if self.num_modules <= 0 or self.functions_per_module <= 0:
            raise WorkloadError(f"{self.name}: need at least one module and one function")
        if self.min_blocks_per_function < 1 or self.max_blocks_per_function < self.min_blocks_per_function:
            raise WorkloadError(f"{self.name}: invalid block-per-function range")
        if self.min_block_instructions < 0 or self.max_block_instructions < self.min_block_instructions:
            raise WorkloadError(f"{self.name}: invalid block instruction range")
        if not 0.0 <= self.forward_taken_probability <= 1.0:
            raise WorkloadError(f"{self.name}: forward taken probability out of range")
        if not 0.0 <= self.loop_taken_probability <= 1.0:
            raise WorkloadError(f"{self.name}: loop taken probability out of range")
        if self.call_levels < 1:
            raise WorkloadError(f"{self.name}: call graph needs at least one level")
        if self.root_fan_out < 1:
            raise WorkloadError(f"{self.name}: need at least one root function")

    def scaled(self, footprint_scale: float, name: str | None = None, seed: int | None = None) -> "WorkloadSpec":
        """Return a spec with the instruction footprint scaled by ``footprint_scale``.

        Scaling adjusts the number of application functions (the main driver of
        branch working-set size) while keeping the dynamic behaviour knobs
        unchanged, which is how the paper's server workloads differ from each
        other (same software structure, different footprints).
        """
        if footprint_scale <= 0:
            raise WorkloadError("footprint scale must be positive")
        functions = max(8, int(round(self.functions_per_module * footprint_scale)))
        return replace(
            self,
            name=name or self.name,
            seed=self.seed if seed is None else seed,
            functions_per_module=functions,
        )


def server_spec(name: str, seed: int, footprint_scale: float = 1.0, isa: ISAStyle = ISAStyle.ARM64) -> WorkloadSpec:
    """Build a server-class spec: large footprint, flat request-driven reuse."""
    base = WorkloadSpec(
        name=name,
        workload_class=WorkloadClass.SERVER,
        isa=isa,
        seed=seed,
        num_modules=4,
        functions_per_module=500,
        num_library_modules=2,
        library_functions_per_module=60,
        call_levels=7,
        root_fan_out=2048,
        root_skew=0.8,
    )
    return base.scaled(footprint_scale, name=name, seed=seed)


def client_spec(name: str, seed: int, footprint_scale: float = 1.0, isa: ISAStyle = ISAStyle.ARM64) -> WorkloadSpec:
    """Build a client-class spec: small footprint, loop-heavy reuse."""
    base = WorkloadSpec(
        name=name,
        workload_class=WorkloadClass.CLIENT,
        isa=isa,
        seed=seed,
        num_modules=2,
        functions_per_module=80,
        num_library_modules=1,
        library_functions_per_module=24,
        call_levels=5,
        loop_branch_fraction=0.30,
        loop_taken_probability=0.94,
        root_fan_out=16,
        root_skew=2.0,
        library_call_fraction=0.03,
        far_library_call_fraction=0.005,
    )
    return base.scaled(footprint_scale, name=name, seed=seed)
