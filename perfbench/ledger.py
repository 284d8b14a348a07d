"""Per-layer ledger: count and self-time accumulators plus coarse spans.

The benchmark attributes host time to the simulator's layers by wrapping
their public functions at class level, from the benchmark's own files —
nothing under ``src/`` is touched.  Hot boundaries (one call per event,
per transmission, per CCA probe) cannot afford a span each, so every
wrapped call only pushes a child-time slot on a call stack, and on return
adds its *self* time (duration minus the wrapped calls it made) to its
layer's busy total.  Coarse boundaries (a setup window, a steady window,
one deployment run, one HTTP request) are recorded as spans and written
out as a Chrome ``trace_event`` file at the end.

A wrapper must never change which code path the program takes, so no
method that the program compares by identity is wrapped (see
``Radio.on_signal_start`` in ``perfbench/layers.py``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Ledger", "write_trace"]

_clock = time.perf_counter


class Ledger:
    """Busy time per layer, named counters, a call stack and spans."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[float] = [0.0]
        self._patches: List[tuple] = []
        self._origin = _clock()

    # ------------------------------------------------------------------
    # Hot boundaries.

    def enter(self) -> float:
        """Open a frame on the call stack; returns its start time."""
        self._stack.append(0.0)
        return _clock()

    def leave(self, start: float, layer: str) -> None:
        """Close the innermost frame and bill its self time to ``layer``."""
        elapsed = _clock() - start
        stack = self._stack
        child = stack.pop()
        stack[-1] += elapsed
        self.busy[layer] += elapsed - child

    def wrap(self, owner: type, name: str, layer: str,
             count: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.name`` by a wrapper billing self time to ``layer``.

        ``count(counts, args, result)`` runs after a successful call and
        may bump named counters.  The method must be defined on ``owner``
        itself, so that :meth:`restore` puts back exactly what was there.
        """
        original = owner.__dict__[name]
        enter, leave, counts = self.enter, self.leave, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = enter()
            try:
                result = original(*args, **kwargs)
            finally:
                leave(start, layer)
            if count is not None:
                count(counts, args, result)
            return result

        self.patch(owner, name, wrapper)

    def patch(self, owner: type, name: str, replacement: Any) -> None:
        """Install ``replacement`` as ``owner.name`` until :meth:`restore`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Coarse boundaries.

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"busy": dict(self.busy), "counts": dict(self.counts)}

    @contextmanager
    def span(self, name: str, **args: Any):
        """Record one coarse span; its args carry the ledger's deltas."""
        before = self.snapshot()
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self.add_span(name, start, end,
                          args={**args, **_delta(before, self.snapshot())})

    def add_span(self, name: str, start: float, end: float, *,
                 cat: str = "span", tid: int = 0,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span from two ``time.perf_counter()`` readings."""
        self.spans.append({
            "name": name, "cat": cat, "tid": tid,
            "ts_us": (start - self._origin) * 1e6,
            "dur_us": (end - start) * 1e6,
            "args": args or {},
        })

    def trace_events(self, pid: int = 0, process: str = "benchmark"
                     ) -> List[Dict[str, Any]]:
        """The spans as Chrome ``trace_event`` complete events."""
        events: List[Dict[str, Any]] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": process},
        }]
        for span in self.spans:
            events.append({
                "ph": "X", "name": span["name"], "cat": span["cat"],
                "pid": pid, "tid": span["tid"],
                "ts": round(span["ts_us"], 3), "dur": round(span["dur_us"], 3),
                "args": span["args"],
            })
        return events


def _delta(before: Dict[str, Dict[str, float]],
           after: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, unit in (("busy", "_ms"), ("counts", "")):
        old = before[key]
        for name, value in after[key].items():
            diff = value - old.get(name, 0)
            if diff:
                out[name + unit] = round(diff * 1e3, 3) if unit else diff
    return out


def write_trace(path, events: List[Dict[str, Any]]) -> None:
    """Write a Chrome/Perfetto-loadable ``trace_event`` document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
