"""Reproduction of "A Storage-Effective BTB Organization for Servers" (BTB-X).

The package is organised bottom-up:

* :mod:`repro.common`      -- bit utilities, configuration, statistics, LRU state;
* :mod:`repro.isa`         -- branch classes and the retired-instruction record;
* :mod:`repro.traces`      -- trace containers, binary/text formats, slicing;
* :mod:`repro.workloads`   -- synthetic server/client workload generation;
* :mod:`repro.btb`         -- BTB organizations (Conv, R-BTB, PDede, BTB-X + BTB-XC)
  and the storage accounting behind Tables III/IV;
* :mod:`repro.predictor`   -- direction predictors and the return address stack;
* :mod:`repro.memory`      -- the L1-I/L2/LLC cache hierarchy;
* :mod:`repro.frontend`    -- branch prediction unit, FTQ and FDIP;
* :mod:`repro.core`        -- the trace-driven front-end simulator and its results,
  with cycles derived from the counts by an interval model;
* :mod:`repro.energy`      -- the calibrated SRAM energy/latency model (Table V);
* :mod:`repro.analysis`    -- offset-distribution and aggregation helpers;
* :mod:`repro.scenarios`   -- multi-tenant trace composition with context
  switches and ASID-aware front-end state (an axis the paper does not explore);
* :mod:`repro.experiments` -- one driver per table/figure of the evaluation,
  plus the consolidation scenario study.

Quickstart::

    from repro import BTBStyle, build_workload, simulate_trace

    trace = build_workload("server_030", 100_000)
    result = simulate_trace(trace, btb_style=BTBStyle.BTBX, budget_kib=14.5)
    print(result.btb_mpki, result.ipc)
"""

from repro.common.config import (
    ASIDMode,
    BTBConfig,
    BTBStyle,
    ISAStyle,
    MachineConfig,
    default_machine_config,
)
from repro.core.metrics import ScenarioResult, SimulationResult
from repro.core.simulator import FrontEndSimulator, simulate_trace
from repro.scenarios import ScenarioSpec, TenantSpec, execute_scenario
from repro.btb import (
    BTBX,
    BTBXC,
    ConventionalBTB,
    IdealBTB,
    PDedeBTB,
    ReducedBTB,
    make_btb_for_budget,
)
from repro.traces.trace import Trace
from repro.workloads.suites import build_suite, build_workload

__version__ = "1.0.0"

__all__ = [
    "ASIDMode",
    "BTBConfig",
    "BTBStyle",
    "ISAStyle",
    "MachineConfig",
    "default_machine_config",
    "ScenarioResult",
    "ScenarioSpec",
    "SimulationResult",
    "TenantSpec",
    "execute_scenario",
    "FrontEndSimulator",
    "simulate_trace",
    "BTBX",
    "BTBXC",
    "ConventionalBTB",
    "IdealBTB",
    "PDedeBTB",
    "ReducedBTB",
    "make_btb_for_budget",
    "Trace",
    "build_suite",
    "build_workload",
    "__version__",
]
