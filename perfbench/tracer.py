"""In-memory span tracer that wraps the program's entry points from outside.

:meth:`Tracer.patch` replaces one attribute (a class method, or a module
function in the namespace its caller looks it up in) with a wrapper that
records a span per call: name, start, end and parent span.  Spans live in
flat arrays while the run lasts and are written out once at the end.  The
parent is the innermost open span on the same thread, so a layer's self time
is its duration minus the time its child spans cover.

Generator functions are wrapped per ``next()``: the span covers the time
spent producing one item, which is the cost the generator adds to its
consumer.  Wrappers only record in the process that installed them; a
forked pool worker runs the original code path at the cost of one pid check.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: Dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("q")
        self._parent = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, stack: list) -> int:
        with self._lock:
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(index)
        return index

    def _close(self, index: int, stack: list) -> None:
        self._end[index] = time.perf_counter()
        stack.pop()

    def wrap(self, name: str, function, generator: bool = False):
        """``function`` with one span per call (per item for generators)."""
        name_id = self._name_id(name)
        tracer = self

        if generator:
            def timed_items(items):
                stack = tracer._stack()
                while True:
                    index = tracer._open(name_id, stack)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index, stack)
                    yield item

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                items = function(*args, **kwargs)
                if os.getpid() != tracer._pid:
                    return items
                return timed_items(items)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if os.getpid() != tracer._pid:
                    return function(*args, **kwargs)
                stack = tracer._stack()
                index = tracer._open(name_id, stack)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer._close(index, stack)

        return wrapper

    def patch(self, owner, attribute: str, name: str, generator: bool = False) -> bool:
        """Wrap ``owner.attribute`` in place; False when it does not exist."""
        current = getattr(owner, attribute, _MISSING)
        if current is _MISSING:
            return False
        own = owner.__dict__.get(attribute, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._patches.append((owner, attribute, own))
        setattr(owner, attribute, self.wrap(name, current, generator))
        return True

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        names = np.frombuffer(self._name, dtype=np.int64).copy()
        parents = np.frombuffer(self._parent, dtype=np.int64).copy()
        return start, end, names, parents

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        start, end, names, parents = self.arrays()
        duration = end - start
        child = parents >= 0
        covered = np.bincount(parents[child], weights=duration[child], minlength=len(start))
        self_time = duration - covered
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> Path:
        """Write every span (start, end, name id, parent index) as ``.npz``."""
        start, end, names, parents = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, start=start, end=end, name=names, parent=parents,
                 names=np.array(self.names))
        return path
