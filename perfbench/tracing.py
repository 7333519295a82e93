"""Spans and counters recorded from outside the program.

The traced run wraps names that each layer exposes to its callers (module
attributes such as ``v2vlos.cli.generate_batch``) before it calls
``cli.main``, and restores them afterwards. A span wrapper records name,
start, end and the enclosing span; a count wrapper only counts calls, for
per-step functions where a span would cost more than the work. A name that
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # spans of one CLI operation share this


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Sum per name of each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children[s.id])
    return dict(out)


class Tracer:
    """In-memory spans and counters, kept until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self._next_id = 0

    @property
    def op(self) -> int:
        return len(self.counts) - 1

    def begin_op(self) -> int:
        self.counts.append(Counter())
        return self.op

    def call(self, name: str, fn: Callable, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self.counts[-1][name + ".calls"] += 1
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]


@dataclass(frozen=True)
class Probe:
    """Wrap ``target`` ("module:attr.path") as a span or a call counter.

    ``tally`` maps a span's return value to extra counts, such as the steps
    a batch produced.
    """

    name: str
    target: str
    span: bool = True
    tally: Callable[[object], dict[str, int]] | None = None


def resolve(target: str) -> tuple[object, str] | None:
    """(owner, attribute) for a "module:attr.path" target, or None when absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    if not probe.span:
        name = probe.name

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        result = tracer.call(probe.name, fn, *args, **kwargs)
        if probe.tally is not None:
            tracer.counts[-1].update(probe.tally(result))
        return result

    return spanned


@contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[list[Probe]]:
    """Wrap every probe's target for the duration; yields the absent probes."""
    restore: list[tuple[object, str, object]] = []
    absent = []
    try:
        for probe in probes:
            found = resolve(probe.target)
            if found is None:
                absent.append(probe)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, probe, original))
        yield absent
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
