"""Zero-dependency structured telemetry: spans, counters and gauges.

The subsystem is built around a tiny :class:`Recorder` protocol with exactly
two implementations:

* :class:`NullRecorder` -- the default.  Every operation is a no-op on a
  shared singleton; ``span()`` returns one preallocated context manager, so
  an instrumented call site costs a method call and nothing else.  Hot loops
  (the per-instruction simulator core) are *never* instrumented -- spans wrap
  work at job/scenario/chunk granularity only.
* :class:`JsonlRecorder` -- buffers events in memory and serializes them as
  JSON Lines.  Spans are hierarchical (a thread-local stack supplies parent
  ids), carry wall-clock start timestamps (``time.time``, comparable across
  processes) and monotonic durations (``time.perf_counter``), and may attach
  arbitrary JSON-serializable attributes.  :meth:`JsonlRecorder.write` is
  the one output path: ``btbx-repro obs report`` aggregates the file and
  ``btbx-repro obs export`` converts it to Chrome trace-event JSON.

Cross-process story: pool workers build their own ``JsonlRecorder`` with a
pid-derived ``origin`` (span ids are ``"<origin>-<n>"``, so ids never collide
across processes), buffer events during ``execute_job``, and ship them back
pickled with the result.  The parent calls :meth:`JsonlRecorder.merge` to
re-parent the worker's root spans under the submitting job span, producing a
single trace file that covers the whole pool.

The active recorder is process-global (``get_recorder`` /
``use_recorder``); the engine tells each pool job explicitly whether the
parent is recording.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Protocol, runtime_checkable


class _NullSpan:
    """Reusable no-op span; one instance serves every disabled call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    @property
    def span_id(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


@runtime_checkable
class Recorder(Protocol):
    """What instrumented code may assume about a recorder."""

    enabled: bool

    def span(self, name: str, **attrs: Any) -> Any: ...

    def count(self, name: str, value: int = 1) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...


class NullRecorder:
    """The disabled recorder: every operation is a cheap no-op."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None


NULL_RECORDER = NullRecorder()


class Span:
    """A live span handle produced by :meth:`JsonlRecorder.span`."""

    __slots__ = ("_recorder", "name", "span_id", "parent_id", "attrs", "_t0", "_ts")

    def __init__(self, recorder: "JsonlRecorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._t0 = 0.0
        self._ts = 0.0

    def __enter__(self) -> "Span":
        self.span_id, self.parent_id = self._recorder._enter_span()
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = time.perf_counter() - self._t0
        self._recorder._exit_span(self, self._ts, dur)
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self


#: Per-process recorder sequence: a pool worker builds one recorder per job,
#: so the pid alone is not enough to keep span ids distinct within a worker.
_ORIGIN_SEQ = itertools.count()


def _default_origin() -> str:
    return f"p{os.getpid()}.{next(_ORIGIN_SEQ)}"


class JsonlRecorder:
    """Buffering recorder that serializes spans and metrics as JSON Lines.

    ``origin`` prefixes every span id; the default is pid-derived (plus a
    per-process sequence number) so worker processes produce globally-unique
    ids without coordination.  Tests pass a fixed origin for determinism.
    """

    enabled = True

    def __init__(self, origin: Optional[str] = None):
        self.origin = origin if origin is not None else _default_origin()
        self.events: List[Dict[str, Any]] = []
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # -- span plumbing ----------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _enter_span(self) -> tuple:
        with self._lock:
            span_id = f"{self.origin}-{self._next_id}"
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent_id

    def _exit_span(self, span: Span, ts: float, dur: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        event = {
            "type": "span",
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "ts": ts,
            "dur": dur,
            "pid": os.getpid(),
        }
        if span.attrs:
            event["attrs"] = span.attrs
        with self._lock:
            self.events.append(event)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a hierarchical span; use as a context manager."""
        return Span(self, name, attrs)

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def emit_span(
        self,
        name: str,
        ts: float,
        dur: float,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> str:
        """Record a span with explicit timing (e.g. reconstructed queue-wait)."""
        with self._lock:
            span_id = f"{self.origin}-{self._next_id}"
            self._next_id += 1
            event: Dict[str, Any] = {
                "type": "span",
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "ts": ts,
                "dur": dur,
                "pid": os.getpid(),
            }
            if attrs:
                event["attrs"] = attrs
            self.events.append(event)
        return span_id

    # -- metrics registry -------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of the named gauge."""
        with self._lock:
            self._gauges[name] = value

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Current registry contents (counters and gauges by name)."""
        with self._lock:
            return {"counters": dict(self._counters), "gauges": dict(self._gauges)}

    def _flush_metrics(self) -> None:
        """Convert registry contents into metric events and clear them."""
        pid = os.getpid()
        with self._lock:
            for name in sorted(self._counters):
                self.events.append(
                    {"type": "counter", "name": name, "value": self._counters[name], "pid": pid}
                )
            for name in sorted(self._gauges):
                self.events.append(
                    {"type": "gauge", "name": name, "value": self._gauges[name], "pid": pid}
                )
            self._counters.clear()
            self._gauges.clear()

    # -- shipping / merging / serialization -------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Flush metrics and return (clearing) the buffered events.

        Workers call this to ship their telemetry back with the job result.
        """
        self._flush_metrics()
        with self._lock:
            events, self.events = self.events, []
        return events

    def merge(self, events: List[Dict[str, Any]], parent_id: Optional[str] = None) -> None:
        """Absorb events from another recorder (typically a pool worker).

        Root spans (``parent_id is None``) are re-parented under
        ``parent_id`` so the combined trace keeps a consistent hierarchy.
        Span ids are origin-prefixed, so no rewriting is needed for
        uniqueness.
        """
        merged = []
        for event in events:
            if parent_id is not None and event.get("type") == "span" and event.get("parent_id") is None:
                event = dict(event)
                event["parent_id"] = parent_id
            merged.append(event)
        with self._lock:
            self.events.extend(merged)

    def write(self, path: str | Path) -> Path:
        """Flush metrics and write all buffered events as JSON Lines."""
        self._flush_metrics()
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            with open(path, "w", encoding="utf-8") as handle:
                for event in self.events:
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path


def read_trace(path: str | Path) -> List[Dict[str, Any]]:
    """Load a JSONL trace file back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# -- active-recorder plumbing ---------------------------------------------

_ACTIVE: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The process-global active recorder (the NullRecorder by default)."""
    return _ACTIVE


def set_recorder(recorder: Optional[Recorder]) -> None:
    """Install ``recorder`` as the active recorder (``None`` -> disabled)."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER


@contextmanager
def use_recorder(recorder: Optional[Recorder]) -> Iterator[Recorder]:
    """Scoped :func:`set_recorder`; restores the previous recorder on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder if recorder is not None else NULL_RECORDER
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
