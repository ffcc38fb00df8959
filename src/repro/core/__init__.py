"""The trace-driven front-end simulator and its results.

* :class:`repro.core.simulator.FrontEndSimulator` walks a retired-instruction
  trace and drives the BTB, direction predictor, RAS, FTQ/FDIP and L1-I,
  producing the event counts behind every figure of the evaluation.
* :class:`repro.core.metrics.SimulationResult` packages the outcome (IPC,
  BTB MPKI, penalty breakdown) for the experiment drivers; its field table
  declares how each count is produced, and
  :func:`repro.core.metrics.tenant_fields` derives cycles from the counts with
  an interval model: base cycles from the fetch width plus additive penalties
  for execute-stage flushes, decode-stage resteers, uncovered L1-I miss
  latency and PDede's extra lookup cycles.
"""

from repro.core.metrics import SimulationResult
from repro.core.simulator import FrontEndSimulator, simulate_trace

__all__ = ["FrontEndSimulator", "simulate_trace", "SimulationResult"]
