"""Analytic SRAM energy and latency model (CACTI-like) for BTB designs.

The paper uses CACTI 7.0 at 22 nm to obtain per-access read/write energies and
access latencies for each BTB organization (Table V and Section VI-E).  CACTI
itself is a large C++ tool; this package provides an analytic stand-in whose
scaling behaviour (energy and delay grow with array capacity, output width and
associativity) is calibrated so that the paper's 14.5 KB operating point
reproduces the reported per-access numbers:

========================  ==========  ===========  ==========
structure                 read (pJ)   write (pJ)   delay (ns)
========================  ==========  ===========  ==========
Conv-BTB (1856 x 64 b)    13.2        25.2         0.36
PDede Main-BTB            8.4         12.5         0.34
PDede Page-BTB            0.9         0.8          0.13
BTB-X (+ BTB-XC)          8.5         11.4         0.33
========================  ==========  ===========  ==========

Total energy for a workload multiplies the per-access numbers by the access
counts collected by the simulator, as Table V does.
"""

from repro.energy.sram import SRAMArray
from repro.energy.btb_energy import BTBEnergyModel, BTBEnergyReport, DesignEnergy

__all__ = [
    "SRAMArray",
    "BTBEnergyModel",
    "BTBEnergyReport",
    "DesignEnergy",
]
