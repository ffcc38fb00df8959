"""Cache hierarchy substrate.

The paper's processor (Table II) has a 32 KB/8-way L1-I, a 48 KB/12-way L1-D,
a 512 KB/8-way unified L2 and a 2 MB/16-way LLC.  The front-end experiments
only exercise the instruction side, but the hierarchy is modelled generally:

* :class:`repro.memory.cache.SetAssociativeCache` -- one set-associative level
  with LRU replacement and an
  :class:`~repro.common.asid.AddressSpacePolicy` for ASID tagging and
  per-tenant set partitioning;
* :class:`repro.memory.hierarchy.MemoryHierarchy` -- the L1-I/L2/LLC/memory
  chain used for demand instruction fetch, with
  flush/tagged/partitioned context-switch behaviour selected by
  :attr:`~repro.common.config.MachineConfig.cache_asid_mode`.
"""

from repro.memory.cache import CacheAccessResult, SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy

__all__ = ["CacheAccessResult", "SetAssociativeCache", "MemoryHierarchy"]
