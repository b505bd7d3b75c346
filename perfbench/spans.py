"""In-memory span recording and the order statistics the benchmark reports.

A span is one call into a wrapped library function: its name, start and
end (``time.perf_counter`` seconds), the index of the span that was open
when it started (its parent, -1 at top level), and attributes computed
from the call's arguments and result after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# percentiles a timing may be reported at, highest first
_TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped functions of a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs, result)``
        runs after the span closes, so its cost lands in the parent."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Spans recorded so far; the recorder starts empty again."""
        out, self.spans = self.spans, []
        return out


@contextmanager
def patched(replacements):
    """Temporarily set ``module.attr = value`` for each (module, attr, value)."""
    saved = []
    try:
        for module_name, attr, value in replacements:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids) for s, kids in zip(spans, children)]


def _rank(n: int, q: float) -> int:
    # the epsilon keeps 99.9% of 10000 at rank 9990 despite rounding
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile: at least ten samples lie beyond it."""
    for q in _TAIL_CANDIDATES:
        if n >= 1 and beyond(n, q) >= MIN_BEYOND:
            return q
    return None
