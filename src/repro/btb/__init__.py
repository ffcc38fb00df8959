"""Branch target buffer organizations.

This package contains the paper's primary contribution (BTB-X with its
companion BTB-XC) and every BTB organization it is compared against:

* :mod:`repro.btb.offsets` -- the target-offset arithmetic of Section III
  (prefix-difference offsets, stored-bit counts, full-target recovery).
* :mod:`repro.btb.base` -- the common interface, the set-associative main
  array every bounded organization builds on (probe, allocator, residency)
  and the Page-/Region-BTB pointer table.
* :mod:`repro.btb.conventional` -- the conventional BTB of Figure 1 (full
  46-bit targets).
* :mod:`repro.btb.rbtb` -- Seznec's Reduced BTB (Main-BTB + Page-BTB pointer
  indirection, Figure 5).
* :mod:`repro.btb.pdede` -- PDede (partitioned, deduplicated, delta BTB with
  Page- and Region-BTBs and same-page ways, Figures 6/7).
* :mod:`repro.btb.btbx` -- BTB-X (8 ways with differently sized offset fields)
  plus the BTB-XC companion for offsets longer than the largest way
  (Figure 8).
* :mod:`repro.btb.storage` -- storage accounting used to reproduce Tables III
  and IV, and :func:`make_btb_for_budget`, the one factory that builds every
  organization for a storage budget.
"""

from repro.btb.base import BTBBase, BTBLookupResult
from repro.btb.btbx import BTBX, BTBXC, BTBX_WAY_OFFSET_BITS_ARM64, BTBX_WAY_OFFSET_BITS_X86
from repro.btb.conventional import ConventionalBTB
from repro.btb.ideal import IdealBTB
from repro.btb.offsets import (
    offset_bits,
    recover_target,
    stored_offset_bits,
    target_offset,
)
from repro.btb.pdede import PDedeBTB
from repro.btb.rbtb import ReducedBTB
from repro.btb.storage import BTBStorageModel, make_btb_for_budget

__all__ = [
    "BTBBase",
    "BTBLookupResult",
    "BTBX",
    "BTBXC",
    "BTBX_WAY_OFFSET_BITS_ARM64",
    "BTBX_WAY_OFFSET_BITS_X86",
    "ConventionalBTB",
    "IdealBTB",
    "ReducedBTB",
    "PDedeBTB",
    "offset_bits",
    "stored_offset_bits",
    "target_offset",
    "recover_target",
    "BTBStorageModel",
    "make_btb_for_budget",
]
