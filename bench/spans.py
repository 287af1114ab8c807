"""In-memory spans around the benchmark's calls into each layer.

A span records the op it belongs to, the layer name, a size label such as
``n=64,a=2`` or ``K=1000``, its start and end, and the span open around it
(its parent).  Spans stay in memory and are summarised when the run ends.
``NullTracer`` has the same interface and records nothing; the untraced
runs use it, so both runs execute the same code.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # [op, name, size, start, end, parent index or None]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list = []

    def new_op(self) -> None:
        self.op += 1

    @contextlib.contextmanager
    def span(self, name: str, size: str = ""):
        parent = self._open[-1] if self._open else None
        record = [self.op, name, size, perf_counter(), None, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> list:
        """(op, name, size, self seconds) per span: its duration minus the
        time its child spans cover."""
        child_time: dict = defaultdict(float)
        for op, name, size, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (op, name, size, end - start - child_time[i])
            for i, (op, name, size, start, end, parent) in enumerate(self.spans)
        ]

    def per_op(self, name: str) -> dict:
        """Total duration of the named layer within each op that called it."""
        totals: dict = defaultdict(float)
        for op, span_name, _size, start, end, _parent in self.spans:
            if span_name == name:
                totals[op] += end - start
        return dict(totals)

    def by_size(self) -> dict:
        """{layer: {size: median self seconds per call}}."""
        groups: dict = defaultdict(lambda: defaultdict(list))
        for _op, name, size, seconds in self.self_times():
            groups[name][size].append(seconds)
        return {
            name: {size: statistics.median(v) for size, v in sorted(sizes.items())}
            for name, sizes in sorted(groups.items())
        }


class NullTracer:
    enabled = False
    _NULL = contextlib.nullcontext()

    def new_op(self) -> None:
        pass

    def span(self, name: str, size: str = ""):
        return self._NULL

    def count(self, name: str, n: int) -> None:
        pass
