"""In-memory span recording around the benchmark's calls into the program.

A span holds its name, start and end (``perf_counter_ns``), the id of the
span that was open when it started, and an operation id shared by the spans
of one workload operation.  The layer of a span is the part of its name
before the first dot (``cli.main`` belongs to ``cli``).  Spans are only kept
in memory while the benchmark runs and are written out by :meth:`dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "op")

    def __init__(self, tracer: "Tracer", name: str, op: int | None) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> None:
        t = self.tracer
        op = self.op
        if op is None and t._stack:
            op = t._records[t._stack[-1]][5]
        parent = t._stack[-1] if t._stack else -1
        t._records.append([self.name, time.perf_counter_ns(), 0, parent, len(t._records), op])
        t._stack.append(len(t._records) - 1)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t._records[t._stack.pop()][2] = time.perf_counter_ns()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Records spans when enabled; otherwise every span is a shared no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._records: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, op)

    def self_time_s(self) -> dict[str, float]:
        """Seconds per layer spent in spans of that layer minus the parts
        covered by their child spans."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _id, _op in self._records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, sid, _op in self._records:
            out[name.split(".", 1)[0]] += (end - start - child_ns[sid]) * 1e-9
        return dict(out)

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "id", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, r)) for r in self._records], fh)
            fh.write("\n")
