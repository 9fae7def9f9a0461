"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, input_id)``; ``parent`` is the index
of the enclosing span or -1, and a span without an input id inherits its
parent's.  Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, input_id: str | None = None) -> None:
        parent = self._open[-1] if self._open else -1
        if input_id is None and parent >= 0:
            input_id = self.spans[parent][4]
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, input_id])

    def end(self) -> float:
        """Close the innermost open span and return its duration."""
        span = self.spans[self._open.pop()]
        span[2] = perf_counter()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str, input_id: str | None = None):
        """Context manager yielding the span record; after the block,
        ``rec[2] - rec[1]`` is its duration."""
        self.begin(name, input_id)
        try:
            yield self.spans[-1]
        finally:
            self.end()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named `name`."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self, first: int = 0) -> dict[tuple[str, str, str], float]:
        """Summed duration per (input id, parent name, name) over spans[first:]."""
        acc: dict[tuple[str, str, str], float] = defaultdict(float)
        for name, start, end, parent, input_id in self.spans[first:]:
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            acc[(input_id, parent_name, name)] += end - start
        return acc

    def records(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": n, "start": s, "end": e, "parent": p, "input": i, "self": t}
            for (n, s, e, p, i), t in zip(self.spans, selfs)
        ]
