"""In-memory spans recorded around the benchmark's calls into the program.

A span has a name, an operation id, a parent span, a start and an end
(``perf_counter_ns``).  Spans of one operation share its id.  Nothing is
written while a run measures; ``to_dict`` hands the spans over at the end.

``NULL`` is the tracer of untraced runs: every span is the same reusable
``nullcontext``, so end-to-end timings carry no tracing cost beyond an
attribute lookup per call.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NO_SPAN = nullcontext()


class NullTracer:
    enabled = False

    def operation(self, name: str):
        return _NO_SPAN

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    enabled = True

    def __init__(self):
        # [name, op_id, parent_index, start_ns, end_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._ops = 0

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; spans opened inside share its id."""
        outer = self._op
        self._ops += 1
        self._op = self._ops
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, self._op, parent, perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = perf_counter_ns()

    def op_totals_ms(self, name: str, root: str | None = None) -> list[float]:
        """Per operation, the summed duration of spans called ``name``.

        With ``root``, only operations whose root span has that name count.
        """
        roots = {s[1]: s[0] for s in self.spans if s[2] is None}
        totals: dict[int, float] = {}
        for s in self.spans:
            if s[0] == name and (root is None or roots.get(s[1]) == root):
                totals[s[1]] = totals.get(s[1], 0.0) + (s[4] - s[3]) / 1e6
        return list(totals.values())

    def median_ms(self, name: str, root: str | None = None) -> float:
        return statistics.median(self.op_totals_ms(name, root))

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self time (ms), self = duration
        minus the part of it that child spans cover."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                child_ns[s[2]] += s[4] - s[3]
        out: dict[str, dict] = {}
        for s, children in zip(self.spans, child_ns):
            row = out.setdefault(s[0], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (s[4] - s[3]) / 1e6
            row["self_ms"] += (s[4] - s[3] - children) / 1e6
        return out

    def to_dict(self) -> dict:
        return {
            "fields": ["name", "op", "parent", "start_ns", "end_ns"],
            "spans": self.spans,
            "self_times": self.self_times(),
        }


NULL = NullTracer()
