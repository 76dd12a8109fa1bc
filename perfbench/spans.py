"""In-memory spans recorded around calls into the program's modules.

The traced run (``--trace 1``) installs wrappers from this file onto the
public functions of each layer (and a few private seams named where they
are patched); the untraced run installs nothing.  A span is
``(pid, id, name, start, end, parent, value)``: ``parent`` is the id of
the span that was open on the same thread when this one started (or one
handed over explicitly with :meth:`Recorder.activate`), and ``value`` is
an optional count measured at the boundary (edges aggregated, messages
sent, cache hits and lookups).  Spans stay in a list until the run ends; forked ranks send
theirs back with their results.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[int], float]


class Recorder:
    """Span list plus a per-thread stack of open span ids."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             measure: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``;
        ``measure(result, *args, **kwargs)`` gives the span's value."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        value = 0.0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                value = measure(result, *args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((os.getpid(), sid, name, t0, t1, parent, value))

    def reserve(self) -> int:
        """A span id to hand out before the span is recorded."""
        return next(self._ids)

    def add(self, name: str, t0: float, t1: float, parent: Optional[int] = None,
            value: float = 0.0, sid: Optional[int] = None) -> int:
        """Record a span measured by the caller; returns its id."""
        if sid is None:
            sid = next(self._ids)
        self.spans.append((os.getpid(), sid, name, t0, t1, parent, value))
        return sid

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((os.getpid(), sid, name, t0, t1, parent, 0.0))

    @contextlib.contextmanager
    def activate(self, sid: Optional[int]):
        """Make ``sid`` the parent of spans opened on this thread (hands a
        request's span to the worker thread that serves it)."""
        stack = self._stack()
        stack.append(sid)
        try:
            yield
        finally:
            stack.pop()


def patch(rec: Recorder, owner, attr: str, name: str,
          measure: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a wrapper that records a span.

    ``measure(result, *args, **kwargs)`` (optional) gives the span's value.
    """
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        return rec.call(name, orig, args, kwargs, measure)

    setattr(owner, attr, wrapper)


def patch_enter(rec: Recorder, owner, attr: str, name: str) -> None:
    """Wrap a context-manager method so the span covers its ``__enter__``
    only: the time spent waiting to get in (a lock, a drain)."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    @contextlib.contextmanager
    def wrapper(*args, **kwargs):
        cm = orig(*args, **kwargs)
        with rec.span(name):
            entered = cm.__enter__()
        try:
            yield entered
        except BaseException as exc:
            if not cm.__exit__(type(exc), exc, exc.__traceback__):
                raise
        else:
            cm.__exit__(None, None, None)

    setattr(owner, attr, wrapper)


# -- analysis ------------------------------------------------------------------


class SpanTree:
    """Index over a span list: children, self time, enclosing ancestor."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: Dict[Tuple[int, int], Span] = {}
        self.children: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        for s in spans:
            self.spans[(s[0], s[1])] = s
        for key, s in self.spans.items():
            if s[5] is not None and (s[0], s[5]) in self.spans:
                self.children[(s[0], s[5])].append(key)

    @staticmethod
    def duration(s: Span) -> float:
        return s[4] - s[3]

    def self_time(self, key) -> float:
        s = self.spans[key]
        return self.duration(s) - sum(
            self.duration(self.spans[c]) for c in self.children.get(key, ())
        )

    def named(self, name: str) -> List[Tuple[int, int]]:
        return sorted(
            (k for k, s in self.spans.items() if s[2] == name),
            key=lambda k: self.spans[k][3],
        )

    def descendants(self, key) -> List[Tuple[int, int]]:
        out, todo = [], list(self.children.get(key, ()))
        while todo:
            k = todo.pop()
            out.append(k)
            todo.extend(self.children.get(k, ()))
        return out

    def self_times_by_layer(self) -> Dict[str, float]:
        """Total self time per layer (the span name's first component)."""
        out: Dict[str, float] = defaultdict(float)
        for key, s in self.spans.items():
            out[s[2].split(".")[0]] += self.self_time(key)
        return dict(out)

    def dump(self, run_id: str) -> List[dict]:
        return [
            {"run": run_id, "pid": s[0], "id": s[1], "name": s[2],
             "start": s[3], "end": s[4], "parent": s[5], "value": s[6]}
            for s in sorted(self.spans.values(), key=lambda s: (s[0], s[3]))
        ]
