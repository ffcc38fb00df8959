"""Core front end: branch prediction unit, fetch target queue and FDIP.

The decoupled front end of Figure 2 is composed of:

* :class:`repro.frontend.bpu.BranchPredictionUnit` -- BTB + direction
  predictor + return address stack, producing a next-PC prediction for every
  instruction the BPU walks over;
* :class:`repro.frontend.ftq.FetchTargetQueue` -- the occupancy of the queue
  of predicted fetch addresses that decouples the BPU from the fetch engine;
  it determines how much L1-I miss latency FDIP can hide;
* :class:`repro.frontend.fdip.FDIPPrefetcher` -- the prefetch engine's
  coverage of L1-I demand misses, modelled from FTQ occupancy (it issues no
  prefetches).
"""

from repro.frontend.bpu import BranchPredictionUnit, FrontEndPrediction, PredictionOutcome
from repro.frontend.fdip import FDIPPrefetcher
from repro.frontend.ftq import FetchTargetQueue

__all__ = [
    "BranchPredictionUnit",
    "FrontEndPrediction",
    "PredictionOutcome",
    "FetchTargetQueue",
    "FDIPPrefetcher",
]
