"""Dependency-free structured telemetry (spans, metrics, trace tooling).

See :mod:`repro.obs.recorder` for the core API, :mod:`repro.obs.chrome` for
the Chrome trace-event exporter and :mod:`repro.obs.report` for the phase
aggregation behind ``btbx-repro obs report``.
"""

from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    Recorder,
    Span,
    get_recorder,
    read_trace,
    set_recorder,
    use_recorder,
)

__all__ = [
    "NULL_RECORDER",
    "JsonlRecorder",
    "NullRecorder",
    "Recorder",
    "Span",
    "get_recorder",
    "read_trace",
    "set_recorder",
    "use_recorder",
]
