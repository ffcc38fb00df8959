"""Synthetic workload generation.

The paper evaluates BTB-X on proprietary Qualcomm traces (IPC-1 client/server,
CVP-1 server) and on five x86 server applications.  Those traces are not
redistributable, so this package synthesizes workloads with the structural
properties the paper itself identifies as the *cause* of its key observations
(Sections III and VI-G):

* programs are built from many small functions;
* conditional branches steer control flow only within a function, so their
  target offsets are short;
* returns take their target from the RAS and need no offset bits;
* calls cross functions and sometimes cross dynamically-mapped libraries that
  live in distant address-space regions, producing the long-offset tail;
* server workloads touch a multi-megabyte instruction footprint with little
  reuse between requests, while client workloads loop over a small footprint.

The pipeline is: :class:`~repro.workloads.spec.WorkloadSpec` (parameters) ->
:class:`~repro.workloads.cfg.ProgramBuilder` (static program: modules,
functions, basic blocks, call graph) -> :class:`~repro.workloads.execution.TraceGenerator`
(seeded walk emitting a :class:`~repro.traces.Trace`).  Named suites matching
the paper's workload lists live in :mod:`repro.workloads.suites`.
"""

from repro.workloads.cfg import BasicBlock, Function, Program, ProgramBuilder, TerminatorKind
from repro.workloads.execution import TraceGenerator, generate_trace
from repro.workloads.spec import WorkloadClass, WorkloadSpec
from repro.workloads.suites import (
    SUITE_NAMES,
    build_suite,
    workload_spec_by_name,
)

__all__ = [
    "BasicBlock",
    "Function",
    "Program",
    "ProgramBuilder",
    "TerminatorKind",
    "TraceGenerator",
    "generate_trace",
    "WorkloadClass",
    "WorkloadSpec",
    "SUITE_NAMES",
    "build_suite",
    "workload_spec_by_name",
]
