"""Span tracing of zbias from outside the package.

The tracer wraps public functions of the zbias modules by rebinding every
module-level name that refers to them, so both the CLI and the package's
own internal calls (which look names up in module globals at call time) go
through the wrapper.  ``Tracer.restore`` puts every original back.

Spans are kept in memory as tuples and only written out by the caller at
the end of a run.  A span opened in a thread with no open span of its own
(a Monte Carlo pool worker) takes as parent the innermost span open in the
thread that installed the tracer, which is the call that submitted the work.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._rebound: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``on_call(counters, *args)``
        runs before the call, outside the span, to update counters."""
        clock = time.perf_counter_ns
        spans = self.spans
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counters, *args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

        return traced

    def install(self, modules, targets) -> None:
        """Rebind, in every module of ``modules``, each name bound to a
        target function.  ``targets`` maps span name -> (function, on_call)."""
        for name, (fn, on_call) in targets.items():
            wrapper = self.wrap(name, fn, on_call)
            for module in modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is fn:
                        self._rebound.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)


def union_ns(intervals) -> int:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover.

    Children may run in other threads and overlap one another; the covered
    part is the union of their intervals clipped to the parent's.
    """
    kids = children_of(spans)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in kids.get(span.id, ())
        ]
        covered = union_ns((s, e) for s, e in clipped if e > s)
        out[span.id] = span.end_ns - span.start_ns - covered
    return out


def roots(spans) -> dict[int, int]:
    """Span id -> id of the outermost span it descends from."""
    parent = {s.id: s.parent for s in spans}
    out: dict[int, int] = {}
    for sid in parent:
        chain = []
        cur = sid
        while cur not in out and parent.get(cur) is not None:
            chain.append(cur)
            cur = parent[cur]
        top = out.get(cur, cur)
        for node in chain:
            out[node] = top
        out[cur] = top
    return out
