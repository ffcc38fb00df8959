"""Trace infrastructure: containers, binary/text formats, and the trace store.

The paper evaluates on proprietary Qualcomm IPC-1/CVP-1 traces; this package
provides the plumbing needed to store and replay the synthetic equivalents
produced by :mod:`repro.workloads` (and any externally converted trace in the
same record format).

* :class:`repro.traces.trace.Trace` -- an in-memory, named sequence of
  :class:`repro.isa.Instruction` records with summary statistics and
  slicing.
* :mod:`repro.traces.binary_io` -- compact struct-packed on-disk format.
* :mod:`repro.traces.text_io` -- human-readable one-record-per-line format.
* :mod:`repro.traces.store` -- bounded, thread-safe memoization of generated
  traces (shared by the experiment runner and the parallel engine).
* :mod:`repro.traces.batch` -- the structure-of-arrays view the batched
  backend indexes into.
"""

from repro.traces.binary_io import read_binary_trace, write_binary_trace
from repro.traces.store import TraceStore, default_store
from repro.traces.trace import Trace, TraceSummary
from repro.traces.text_io import read_text_trace, write_text_trace

__all__ = [
    "Trace",
    "TraceSummary",
    "TraceStore",
    "default_store",
    "read_binary_trace",
    "write_binary_trace",
    "read_text_trace",
    "write_text_trace",
]
