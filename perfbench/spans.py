"""Spans recorded around the program's public functions, from outside.

``Tracer.patch`` replaces a module attribute with a wrapper that records a
span (id, parent id, name, start, end) and puts the original back on
``restore``. Spans nest through a stack, so a span's self time is its
duration minus the durations of its direct children. Work the benchmark does
to read a result (a ``hook``) is recorded as a sibling span named
``trace.hook``, so it is never charged to the program.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` timed as span ``name``; then ``hook(args, kwargs, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span = self._open("trace.hook")
                try:
                    hook(args, kwargs, result)
                finally:
                    self._close(span)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Wrap ``owner.attr``; an attribute the program no longer has is skipped,
        so its span simply never occurs."""
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: seconds without hooks, self seconds, and call count."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        hooks: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
            if s.name == "trace.hook":
                up = s.parent
                while up is not None:
                    hooks[up] += s.end - s.start
                    up = self.spans[up].parent
        for s in self.spans:
            total[s.name] += s.end - s.start - hooks[s.id]
            self_s[s.name] += s.end - s.start - child[s.id]
            calls[s.name] += 1
        return total, self_s, calls
