"""Spans and counts taken around the benchmark's calls into the engine.

A span is (name, start, end, parent span index, operation id).  Spans are
kept in memory and written out when the run ends; a layer's self time is
its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import gzip
from time import perf_counter


class NoTracer:
    """The untraced path: calls straight through and records nothing."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op_begin(self):
        pass

    def op_end(self):
        pass

    def op_abort(self):
        pass

    def count(self, name, n):
        pass

    def count_max(self, name, n):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = {}
        self._stack = []
        self._op = -1

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def op_begin(self):
        self._op += 1
        self._stack.append(len(self.spans))
        self.spans.append(["op", perf_counter(), 0.0, -1, self._op])

    def op_end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def op_abort(self):
        """Drop the operation just begun (the round had no more work)."""
        del self.spans[self._stack.pop():]
        self._op -= 1

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def count_max(self, name, n):
        self.counts[name] = max(self.counts.get(name, 0), n)

    def self_ms(self) -> dict:
        """Total self time per span name, in milliseconds."""
        out = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] -= end - start
        return {name: 1e3 * s for name, s in out.items()}

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times in microseconds from the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                         f"{parent},{op}\n")
