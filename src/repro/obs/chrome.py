"""Chrome trace-event export for JSONL traces.

Converts the event stream produced by
:class:`repro.obs.recorder.JsonlRecorder` into the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` object form) so a recording can be
loaded directly into ``about://tracing`` or https://ui.perfetto.dev.

Mapping:

* spans -> complete events (``"ph": "X"``) with microsecond ``ts``/``dur``
  relative to the earliest span in the trace, ``pid`` preserved, the span's
  origin used as ``tid`` so each worker gets its own track, and the span's
  attributes (plus ids) under ``args``;
* counters -> counter events (``"ph": "C"``) pinned after the last span so
  final totals show as a bar per counter name;
* gauges are left out; they remain available in the JSONL file.

The export is deterministic: given the same event list, the output is
byte-identical (events keep input order, keys are sorted on serialization).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List


def _origin(span_id: Any) -> str:
    if isinstance(span_id, str) and "-" in span_id:
        return span_id.rsplit("-", 1)[0]
    return "main"


def to_chrome_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Convert recorder events to a Chrome ``traceEvents`` list."""
    span_events = [e for e in events if e.get("type") == "span"]
    t0 = min((e["ts"] for e in span_events), default=0.0)
    t_end = max((e["ts"] + e.get("dur", 0.0) for e in span_events), default=0.0)
    out: List[Dict[str, Any]] = []
    for event in span_events:
        args = dict(event.get("attrs") or {})
        args["span_id"] = event.get("span_id")
        if event.get("parent_id") is not None:
            args["parent_id"] = event["parent_id"]
        name = event["name"]
        out.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": round((event["ts"] - t0) * 1e6, 3),
                "dur": round(event.get("dur", 0.0) * 1e6, 3),
                "pid": event.get("pid", 0),
                "tid": _origin(event.get("span_id")),
                "args": args,
            }
        )
    counter_ts = round((t_end - t0) * 1e6, 3)
    for event in events:
        if event.get("type") == "counter":
            out.append(
                {
                    "ph": "C",
                    "name": event["name"],
                    "cat": "metric",
                    "ts": counter_ts,
                    "pid": event.get("pid", 0),
                    "tid": "metrics",
                    "args": {"value": event.get("value", 0)},
                }
            )
    return out


def export_chrome(events: List[Dict[str, Any]], path: str | Path) -> Path:
    """Write ``events`` to ``path`` as a Chrome trace-event JSON object."""
    path = Path(path)
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": to_chrome_events(events),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=None, separators=(",", ":"))
        handle.write("\n")
    return path
