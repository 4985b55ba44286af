"""In-process tracer for vocalm: wraps public functions and records one span
per call, kept in memory until the traced run ends.

A span is (name, parent span index, start, end, process CPU at start and end,
counts). Self time is a span's duration minus its children's durations. A span
opened on a worker thread whose own stack is empty takes the main thread's
open span as its parent, so feature extraction in the thread pool is
attributed to the features stage.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, name: str, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, parent, time.perf_counter(), cpu_start=time.process_time())
            with tracer._lock:
                tracer.spans.append(span)
                idx = len(tracer.spans) - 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def wrap(self, name: str, owner, attr: str, measure=None) -> None:
        """Replace owner.attr with a traced wrapper. For a module-level
        function, also replace every `from ... import` alias of it held by a
        loaded vocalm module, so calls by either name are traced."""
        original = getattr(owner, attr)
        wrapped = self._wrapper(name, original, measure)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                mod
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name.startswith("vocalm") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            setattr(target, attr, wrapped)
            self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, seconds, self seconds, CPU seconds and
        summed counts."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            agg = out.setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "counts": defaultdict(float)}
            )
            agg["calls"] += 1
            agg["s"] += span.duration
            agg["self_s"] += span.duration - child_time[i]
            agg["cpu_s"] += span.cpu_end - span.cpu_start
            for key, value in span.counts.items():
                agg["counts"][key] += value
        return out

    def under(self, idx: int, ancestor: str) -> bool:
        """True when span idx has an ancestor span named `ancestor`."""
        parent = self.spans[idx].parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False
