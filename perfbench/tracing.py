"""In-memory spans recorded around the benchmark's calls into sigclust.

A span has a name of the form ``<module>.<call>``, a start and end time
(``time.perf_counter`` seconds), the id of the span that encloses it, and
the id of the operation it belongs to. Spans stay in memory and are written
out once, when the run ends. Nothing here touches sigclust itself: spans
wrap the public calls made from the benchmark's own code.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; KeyError if none."""
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def self_times(self, op) -> dict[str, float]:
        """Self time per span of operation ``op``: its duration minus the
        time its direct children cover (children never overlap)."""
        spans = [s for s in self.spans if s["op"] == op]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}

    def module_self_times(self, op) -> dict[str, float]:
        """Self time of operation ``op`` summed per module (name prefix)."""
        by_id = {s["id"]: s for s in self.spans}
        out: dict[str, float] = defaultdict(float)
        for sid, t in self.self_times(op).items():
            out[by_id[sid]["name"].split(".", 1)[0]] += t
        return dict(out)

    def root(self, op) -> dict:
        return next(s for s in self.spans if s["op"] == op and s["parent"] is None)
