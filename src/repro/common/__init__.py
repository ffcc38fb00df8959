"""Shared utilities used by every subsystem of the BTB-X reproduction.

The :mod:`repro.common` package intentionally has no dependencies on the rest of
the code base.  It provides:

* :mod:`repro.common.bitutils` -- bit manipulation helpers (masking, folding,
  power-of-two and budget arithmetic) used by the BTB organizations and the
  storage model.
* :mod:`repro.common.config` -- frozen dataclass configuration objects for the
  core, caches, BTBs and simulations.
* :mod:`repro.common.stats` -- a lightweight named-counter registry with
  hierarchical grouping, used by every simulated structure.
* :mod:`repro.common.lru` -- reusable LRU replacement state shared by the
  caches and the BTB organizations.
* :mod:`repro.common.errors` -- exception hierarchy for the package.
* :mod:`repro.common.asid` -- the cross-layer address-space policy (tag
  coloring, capacity partitioning, duplication accounting) adopted by the BTB
  organizations, the BPU and the memory hierarchy.
"""

from repro.common.asid import (
    AddressSpacePolicy,
    ASIDCheckpointStore,
    retains_across_switch,
)
from repro.common.bitutils import (
    fold_xor,
    is_power_of_two,
    mask,
)
from repro.common.config import (
    BTBStyle,
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    FDIPConfig,
    MachineConfig,
    default_machine_config,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from repro.common.lru import LRUState
from repro.common.stats import StatGroup, Stats

__all__ = [
    "AddressSpacePolicy",
    "ASIDCheckpointStore",
    "retains_across_switch",
    "fold_xor",
    "is_power_of_two",
    "mask",
    "BTBStyle",
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "FDIPConfig",
    "MachineConfig",
    "default_machine_config",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "TraceFormatError",
    "LRUState",
    "StatGroup",
    "Stats",
]
