"""Configuration dataclasses for the modelled machine.

The default values mirror Table II of the paper (a core resembling Intel Sunny
Cove): 6-wide fetch with a 128-instruction FTQ, a hashed-perceptron direction
predictor, a 64-entry return address stack, a 32 KB/8-way L1-I, a 48 KB/12-way
L1-D, a 512 KB/8-way L2 and a 2 MB/16-way LLC.

All configuration classes are frozen dataclasses: once a simulation is
constructed its parameters cannot drift, which keeps experiment records
trustworthy.
"""

from __future__ import annotations

import enum
import importlib.util
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.common.bitutils import is_power_of_two
from repro.common.errors import ConfigurationError

#: Simulation backends a :class:`MachineConfig` may select.  ``"python"`` is
#: the scalar per-instruction oracle; ``"numpy"`` is the batched
#: structure-of-arrays engine, bit-exact against the oracle (enforced by the
#: differential suite) but only available when numpy is installed.
BACKENDS: tuple[str, ...] = ("python", "numpy")

#: Environment variable consulted when no backend is requested explicitly.
#: Set by ``--backend`` on the CLI so forked worker processes inherit it.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: str | None) -> str:
    """Resolve and validate a simulation backend name.

    ``None`` consults :data:`BACKEND_ENV_VAR` and falls back to ``"python"``.
    Names are normalized with ``.strip().lower()`` like ``REPRO_SCALE``
    (:func:`repro.experiments.config.current_scale`), so ``"NUMPY"`` or a
    trailing-space ``"numpy "`` from CI YAML selects the backend instead of
    dying as unknown.  Requesting ``"numpy"`` without numpy installed is a
    configuration error rather than a silent fallback: a benchmark silently
    running the scalar oracle would report a fake regression.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "")
    backend = backend.strip().lower() or "python"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy" and importlib.util.find_spec("numpy") is None:
        raise ConfigurationError(
            "backend 'numpy' requested but numpy is not installed; "
            "install the 'numpy' extra or use backend='python'"
        )
    return backend


class BTBStyle(enum.Enum):
    """Which BTB organization a simulation instantiates."""

    CONVENTIONAL = "conventional"
    REDUCED = "rbtb"
    PDEDE = "pdede"
    BTBX = "btbx"
    IDEAL = "ideal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ASIDMode(enum.Enum):
    """How front-end predictive state survives a context switch.

    ``FLUSH`` discards BTB, direction predictor and RAS contents whenever a
    different address space is scheduled in (the conservative hardware
    baseline).  ``TAGGED`` retains everything: BTB entries are tagged with the
    address-space identifier so tenants share capacity without false cross-ASID
    hits, and the RAS is checkpointed per ASID.  ``PARTITIONED`` retains like
    ``TAGGED`` but additionally set-partitions every BTB's capacity among the
    tenants (weight-proportionally), so tenants can neither hit on nor evict
    each other's entries -- isolating cross-tenant *pollution* from the
    *cold-start* misses that ``FLUSH`` vs ``TAGGED`` exposes.  With no context
    switches and a single tenant all three modes are indistinguishable.
    """

    FLUSH = "flush"
    TAGGED = "tagged"
    PARTITIONED = "partitioned"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def require_positive_int(value: object, what: str) -> int:
    """Return ``value`` if it is a positive ``int``, else raise naming ``what``.

    Rejects ``bool`` (a subclass of ``int``) and floats rather than silently
    truncating them: scheduling quanta, tenant weights and partition maps all
    feed exact integer arithmetic.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{what} must be a positive integer, got {value!r}")
    return value


def require_budget_kib(budget_kib: float | None, owner: str) -> None:
    """Raise :class:`ConfigurationError` unless ``budget_kib`` is positive and finite."""
    if budget_kib is None or not 0 < budget_kib < math.inf:
        raise ConfigurationError(
            f"{owner} needs a positive, finite storage budget, got {budget_kib!r}"
        )


def validate_partition_weights(weights: "Sequence[int]") -> tuple[int, ...]:
    """Validate a per-tenant capacity-partition map (a tuple of weights).

    Weights must be positive integers; they are the scheduling weights of the
    scenario's tenants and determine each tenant's share of every partitioned
    BTB's sets.  Raises :class:`ConfigurationError` naming the offending
    entry.
    """
    if weights is None or len(weights) == 0:
        raise ConfigurationError("partition map needs at least one tenant weight")
    for position, weight in enumerate(weights):
        require_positive_int(weight, f"partition weight #{position}")
    return tuple(weights)


def partition_set_counts(num_sets: int, weights: "Sequence[int]") -> list[int]:
    """Apportion ``num_sets`` BTB sets among tenants proportionally to ``weights``.

    Every tenant receives at least one set; the remainder is distributed by
    largest fractional share (deterministic tie-break on weight, then on the
    earlier tenant), so the counts always sum to exactly ``num_sets``.  Raises
    :class:`ConfigurationError` when the structure has fewer sets than tenants.

    Exact integer arithmetic throughout: each tenant's fractional share is
    ``spare * weight / total``, carried as the ``divmod`` quotient and
    remainder instead of a float.  At high tenant counts the float version
    could round ``int(share)`` past the true floor, driving the leftover
    negative and handing the remainder sets to the wrong tenants; the integer
    remainders ``r / total`` order identically to the fractional shares
    wherever the floats were exact, so small apportionments are unchanged.
    """
    weights = validate_partition_weights(weights)
    tenants = len(weights)
    if num_sets < tenants:
        raise ConfigurationError(
            f"cannot partition {num_sets} set(s) among {tenants} tenants "
            "(each partition needs at least one set)"
        )
    spare = num_sets - tenants
    total = sum(weights)
    counts = []
    remainders = []
    for weight in weights:
        quotient, remainder = divmod(spare * weight, total)
        counts.append(1 + quotient)
        remainders.append(remainder)
    leftover = num_sets - sum(counts)
    by_remainder = sorted(
        range(tenants),
        key=lambda i: (remainders[i], weights[i], -i),
        reverse=True,
    )
    for index in by_remainder[:leftover]:
        counts[index] += 1
    return counts


class ISAStyle(enum.Enum):
    """Instruction-set flavour of a workload.

    Arm64 instructions are fixed 4-byte, so the two least significant bits of
    every PC/target are zero and never stored.  x86 instructions are variable
    length, so offsets are byte-granular and need 1-2 more bits on average
    (Section VI-G).
    """

    ARM64 = "arm64"
    X86 = "x86"

    @property
    def alignment_bits(self) -> int:
        """Number of always-zero low-order address bits."""
        return 2 if self is ISAStyle.ARM64 else 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a single cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 64
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"{self.name}: size and associativity must be positive")
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"associativity*line_size ({self.associativity}*{self.line_size})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{self.name}: set count {self.num_sets} must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Hashed-perceptron direction predictor and return-address-stack parameters."""

    ras_entries: int = 64
    # Hashed perceptron parameters (ChampSim-like defaults).
    perceptron_history_lengths: tuple[int, ...] = (3, 8, 14, 21, 31)
    perceptron_table_bits: int = 12
    perceptron_weight_bits: int = 8

    def __post_init__(self) -> None:
        if self.ras_entries <= 0:
            raise ConfigurationError("RAS must have at least one entry")


@dataclass(frozen=True)
class FDIPConfig:
    """Fetch-directed instruction prefetcher parameters (Figure 2)."""

    enabled: bool = True
    ftq_instructions: int = 128

    def __post_init__(self) -> None:
        if self.ftq_instructions <= 0:
            raise ConfigurationError("FTQ must hold at least one instruction")


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline-width and penalty parameters of the modelled core (Table II)."""

    fetch_width: int = 6
    # Penalty (in cycles) of a pipeline flush detected at the execute stage:
    # front-end refill depth of a Sunny-Cove-like pipeline.
    execute_flush_penalty: int = 17
    # Penalty of a resteer performed at the decode stage (Section VI-A's
    # improved branch resolution for direct branches that miss in the BTB).
    decode_resteer_penalty: int = 5

    def __post_init__(self) -> None:
        if self.fetch_width <= 0:
            raise ConfigurationError("fetch width must be positive")
        if self.execute_flush_penalty < self.decode_resteer_penalty:
            raise ConfigurationError(
                "execute-stage flush cannot be cheaper than a decode-stage resteer"
            )


@dataclass(frozen=True)
class BTBConfig:
    """The BTB a machine runs: an organization sized for a storage budget.

    :func:`repro.btb.storage.make_btb_for_budget` builds it, as it builds
    every experiment's BTB, so organizations compare at equal storage as in
    the paper.  ``btbx_way_offset_bits`` replaces BTB-X's per-way offset
    widths (``None``: the paper's widths for ``isa``).
    """

    style: BTBStyle = BTBStyle.BTBX
    budget_kib: float = 14.5
    isa: ISAStyle = ISAStyle.ARM64
    btbx_way_offset_bits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        require_budget_kib(self.budget_kib, "a BTB")


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description: core, predictor, FDIP, BTB, cache hierarchy."""

    core: CoreConfig = field(default_factory=CoreConfig)
    branch_predictor: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    fdip: FDIPConfig = field(default_factory=FDIPConfig)
    btb: BTBConfig = field(default_factory=BTBConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 8, hit_latency=4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 * 1024, 12, hit_latency=5)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * 1024, 8, hit_latency=14)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 * 1024 * 1024, 16, hit_latency=34)
    )
    memory_latency: int = 200
    #: Context-switch handling of front-end predictive state (scenario runs).
    asid_mode: ASIDMode = ASIDMode.FLUSH
    #: Context-switch handling of the cache hierarchy.  ``None`` (the
    #: default) keeps the legacy shared, untagged hierarchy that ignores
    #: switches entirely; an :class:`ASIDMode` makes every cache level flush,
    #: ASID-tag (PIPT-style sharing) or set-partition across switches, driven
    #: by the same :mod:`repro.common.asid` policy as the BTBs.
    cache_asid_mode: ASIDMode | None = None
    #: Simulation backend: ``"python"`` (the scalar oracle) or ``"numpy"``
    #: (the batched structure-of-arrays engine).  Deliberately excluded from
    #: experiment cache identity -- the backends are bit-exact equals.
    backend: str = "python"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown simulation backend {self.backend!r}; expected one of {BACKENDS}"
            )

    def with_fdip(self, enabled: bool) -> "MachineConfig":
        """Return a copy of this machine with FDIP enabled or disabled."""
        return replace(self, fdip=replace(self.fdip, enabled=enabled))


def default_machine_config(
    btb_style: BTBStyle = BTBStyle.BTBX,
    budget_kib: float = 14.5,
    fdip_enabled: bool = True,
    isa: ISAStyle = ISAStyle.ARM64,
    asid_mode: ASIDMode = ASIDMode.FLUSH,
    cache_asid_mode: ASIDMode | None = None,
    backend: str | None = None,
) -> MachineConfig:
    """Build the paper's Table II machine with the requested BTB organization.

    The BTB is sized for ``budget_kib`` KiB of storage (14.5, the paper's
    headline budget, by default).  ``cache_asid_mode=None`` keeps the legacy
    ASID-oblivious cache hierarchy.  ``backend=None`` consults the
    ``REPRO_BACKEND`` environment variable (see :func:`resolve_backend`), so a
    single CLI flag reaches every worker process.
    """
    machine = MachineConfig(
        btb=BTBConfig(style=btb_style, budget_kib=budget_kib, isa=isa),
        asid_mode=asid_mode,
        cache_asid_mode=cache_asid_mode,
        backend=resolve_backend(backend),
    )
    return machine.with_fdip(fdip_enabled)

