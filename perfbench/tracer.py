"""In-memory span tracing by wrapping functions where their callers look them up.

A ``Hook`` names one binding, ``"<module>.<attribute>"``, and the layer its
spans belong to.  ``Tracer.installed`` replaces each binding with a wrapper
that records a span (name, start, end, parent span, run id) around every call
and restores the original bindings on exit.  A binding that no longer exists
is listed in ``Tracer.absent`` instead of raising, so the benchmark keeps
running when a refactor removes or folds a function.

Spans stay in memory until the caller writes them out.  Parents are tracked
per thread; a span opened on a worker thread with nothing open on that thread
gets the innermost open fan-out span (for example ``parallel_map``) as parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    cpu: float | None = None  # process plus reaped-children CPU seconds, where measured

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """One binding to wrap.

    ``count(state, args, kwargs, result)`` updates the tracer's counters after
    a successful call.  ``cpu`` records CPU time inside the span.  ``fanout``
    marks a call whose worker threads attach their spans to it.
    """

    target: str
    layer: str
    count: Callable | None = None
    cpu: bool = False
    fanout: bool = False


def _cpu_seconds() -> float:
    children = os.times()
    return time.process_time() + children.children_user + children.children_system


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.state: dict = {}
        self.absent: list[str] = []
        self.counter_errors = 0
        self.run = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._fanout: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._fanout[-1] if self._fanout else None)
            span_id = next(self._ids)
            stack.append(span_id)
            if hook.fanout:
                self._fanout.append(span_id)
            cpu0 = _cpu_seconds() if hook.cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = _cpu_seconds() - cpu0 if hook.cpu else None
                stack.pop()
                if hook.fanout:
                    self._fanout.pop()
                span = Span(span_id, hook.layer, start, end, parent, self.run,
                            threading.get_ident(), cpu)
                with self._lock:
                    self.spans.append(span)
            if hook.count is not None:
                with self._lock:
                    try:
                        hook.count(self.state, args, kwargs, result)
                    except Exception:  # a changed signature must not stop the workload
                        self.counter_errors += 1
            return result

        return wrapper

    @contextmanager
    def installed(self, hooks: Iterable[Hook]) -> Iterator["Tracer"]:
        patched = []
        try:
            for hook in hooks:
                module_name, _, attr = hook.target.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(hook.target)
                    continue
                setattr(module, attr, self._wrap(original, hook))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on worker threads may overlap one another; their union is
    subtracted once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def median_and_tail(samples: Iterable[float], beyond: int = 10) -> dict:
    """Median plus the highest percentile that has ``beyond`` samples above it.

    With n samples sorted ascending, the tail value is the one ranked n-beyond
    (1-based), so exactly ``beyond`` samples lie beyond it, and its percentile
    is 100*(n-beyond)/n: 200 samples give the 95th.  Fewer than beyond+1
    samples have no such percentile and report ``tail_pct`` None.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "p50": statistics.median(xs), "tail_pct": None, "tail": None}
    if n > beyond:
        out["tail_pct"] = 100.0 * (n - beyond) / n
        out["tail"] = xs[n - beyond - 1]
    return out
