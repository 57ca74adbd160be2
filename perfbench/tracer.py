"""Spans recorded from outside a library by wrapping its functions.

A span is a name, a start, an end and the span that was open when it
started (its parent).  Spans stay in memory until the benchmark reads
them.  A span's self time is its duration minus the part of that
interval its child spans cover.

Modules import each other's functions by name, so a function is replaced
in every namespace that binds it, not only in the module that defines it;
otherwise calls through the other names would go untimed.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the recorder's span list; -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration of ``span`` minus the union of its children's intervals,
    each clipped to the span (children may overlap or stick out)."""
    covered = 0.0
    lo_run = hi_run = None
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, span.start), min(child.end, span.end)
        if hi <= lo:
            continue
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                covered += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        covered += hi_run - lo_run
    return span.duration - covered


class SpanRecorder:
    """Records nested spans of one thread; the innermost open span is the
    parent of the next one opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def self_times(self) -> list:
        children: list = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        return [self_time(s, kids) for s, kids in zip(self.spans, children)]

    def ancestors(self, idx: int):
        """Spans enclosing span ``idx``, innermost first."""
        p = self.spans[idx].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr`` (a module or a class), recorded
    under ``span``; ``count`` maps its return value to span counts."""

    owner: object
    attr: str
    span: str
    count: Optional[Callable[[object], dict]] = None


def _wrap(fn, target: Target, rec: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if target.count is not None:
            rec.spans[idx].counts = target.count(result)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(rec: SpanRecorder, targets: Iterable[Target], namespaces: Iterable[object]):
    """Wrap every target in its owner and in each namespace that binds the
    same function object; put the originals back on exit."""
    namespaces = list(namespaces)
    patched = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = _wrap(original, target, rec)
            for ns in [target.owner] + [m for m in namespaces if m is not target.owner]:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        patched.append((ns, name, original))
                        setattr(ns, name, wrapper)
        yield rec
    finally:
        for ns, name, original in reversed(patched):
            setattr(ns, name, original)
