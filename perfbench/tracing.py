"""Span recorder for the traced benchmark run.

Wraps named entry points of the library in place (class methods, static
methods and module functions), records one span per call, and restores the
originals on exit.  Nothing under ``src/`` changes: the wrappers live only
in the process that installs them, so spawned pool workers, which re-import
``repro``, run unwrapped.

A span is ``[layer, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` at top level).  Spans stay in memory; a layer's self
time is its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans around ``points``: a list of ``(layer, owner, attr)``."""

    def __init__(self, points: list[tuple[str, object, str]]) -> None:
        self.points = points
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr in self.points:
                original = vars(owner)[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def profile(self, start: int) -> tuple[dict[str, float], Counter, float]:
        """Self seconds and call count per layer of the spans recorded since
        index ``start``, plus the seconds their top-level spans cover."""
        spans = self.spans[start:]
        child_time: dict[int, float] = defaultdict(float)
        covered = 0.0
        for layer, t0, t1, parent in spans:
            if parent >= start:
                child_time[parent] += t1 - t0
            else:
                covered += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (layer, t0, t1, _) in enumerate(spans, start):
            self_time[layer] += (t1 - t0) - child_time[index]
            calls[layer] += 1
        return dict(self_time), calls, covered
