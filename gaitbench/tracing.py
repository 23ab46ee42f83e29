"""Spans and counts recorded around the benchmark's calls into gaitlab.

A span holds a name, a start and an end (ns, `time.perf_counter_ns`), its
parent span and the run id it belongs to. Span names are
`<module>.<public call>`, with `bench.*` for the benchmark's own code, so a
module's self time is the summed self time of its spans. Spans are kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

ROOT_PARENT = -1


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int
    name: str
    start_ns: int
    end_ns: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Calls straight through; used for the untraced (end-to-end) runs."""

    next_id = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    """Records a span around every call and adds up named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._spans: list[tuple | None] = []
        self._stack = [ROOT_PARENT]
        self.counts: Counter = Counter()

    def call(self, name, fn, *args):
        span_id = len(self._spans)
        self._spans.append(None)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._spans[span_id] = (span_id, parent, name, start, end)

    def count(self, name, n=1):
        self.counts[name] += n

    @property
    def next_id(self) -> int:
        """Id the next span will get."""
        return len(self._spans)

    @property
    def spans(self) -> list[Span]:
        """All spans, indexed by span id; call only when no call is open."""
        return [Span(*s) for s in self._spans]

    def write(self, path: Path) -> None:
        """Gzipped text: a JSON header line (run id, counts), then one CSV line
        per span: run id, span id, parent id, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts)}) + "\n")
            for s in self._spans:
                f.write("%s,%d,%d,%s,%d,%d\n" % (self.run_id, *s))


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
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


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover.

    Child intervals are clipped to the parent's, so a child that overran its
    parent (clock skew, a bug in the caller) never makes self time negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent_id in by_id:
            children[s.parent_id].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s.start_ns), min(hi, s.end_ns))
            for lo, hi in children.get(s.span_id, ())
            if min(hi, s.end_ns) > max(lo, s.start_ns)
        ]
        out[s.span_id] = (s.end_ns - s.start_ns) - _covered(clipped)
    return out


def module_self_ns(spans: list[Span]) -> dict[str, int]:
    """Summed self time per module (the span name's first component)."""
    own = self_times(spans)
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.module] += own[s.span_id]
    return dict(out)


def call_trees(spans: list[Span], root_ids) -> list[Span]:
    """The spans of the call trees under the given top-level spans.

    `spans` is indexed by span id. Ids are handed out in call order, so the
    tree under a top-level span is the id range up to the next top-level span.
    """
    tops = [s.span_id for s in spans if s.parent_id == ROOT_PARENT]
    end = dict(zip(tops, tops[1:] + [len(spans)]))
    return [s for r in root_ids for s in spans[r : end[r]]]


def name_total_ns(spans: list[Span]) -> dict[str, int]:
    """Summed duration per span name."""
    total: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.end_ns - s.start_ns
    return dict(total)
