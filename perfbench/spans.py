"""In-memory spans around the public entry point of each layer.

A wrapper is installed where the function is actually looked up: the CLI
binds its names with `from .x import y`, so the CLI's own namespace is
patched; `DensityField.sample` is patched on the class; `GridTree.validated`
reaches `validate_grid` through `feederflow.grid`.  Spans are kept in a list
and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None     # index of the enclosing span, None at the top
    op: object             # operation id; "setup" outside the timed loop
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """fn, recording one span per call; count(args, result) -> {name: n}."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            index = len(spans)
            span = Span(name, time.perf_counter_ns(), 0, parent, self.op)
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for [(owner, attribute, span name, count)], then
        restore the originals."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.op, s.counts])
                         + "\n")


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return [s.end_ns - s.start_ns - _covered(kids, s.start_ns, s.end_ns)
            for s, kids in zip(spans, children)]


def coverage(spans: list[Span], op_walls: dict, skip=()) -> dict:
    """Per operation, the share of its wall time (op -> (start, end) ns)
    covered by its top-level spans.  Spans named in skip are looked
    through: their children count instead."""
    tops: dict = {op: [] for op in op_walls}
    for s in spans:
        if s.name in skip or s.op not in tops:
            continue
        parent = s.parent
        while parent is not None and spans[parent].name in skip:
            parent = spans[parent].parent
        if parent is None:
            tops[s.op].append((s.start_ns, s.end_ns))
    return {op: _covered(tops[op], t0, t1) / max(t1 - t0, 1)
            for op, (t0, t1) in op_walls.items()}


def totals(spans: list[Span], ops) -> dict[str, dict[str, float]]:
    """Per span name over the given operations: calls, total and self ns,
    and the sum of every count."""
    ops = set(ops)
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.op not in ops:
            continue
        row = out.setdefault(s.name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += s.end_ns - s.start_ns
        row["self_ns"] += own
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out
