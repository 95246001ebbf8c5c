"""In-memory spans around the benchmark's calls into the library.

A span records a name, its start and end (perf_counter seconds), the
index of the span that encloses it and the job it belongs to.  Spans
stay in memory until the run ends.  While tracing is off, span() and
job() cost one generator step and record nothing, so the untraced run
that yields the end-to-end metrics carries no tracing work.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.gc: dict[int, list[float]] = {}  # job -> durations of its collections
        self._stack: list[int] = []
        self._job = -1
        self._gc_started = 0.0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self._job,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    @contextmanager
    def job(self, index: int):
        """The root span of one job; also times garbage collections in it."""
        if not self.enabled:
            yield
            return
        self._job = index
        self.gc[index] = []
        gc.callbacks.append(self._on_gc)
        try:
            with self.span("job"):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc[self._job].append(perf_counter() - self._gc_started)

    def self_times(self, job: int) -> dict[str, float]:
        """Per span name, the summed duration of its spans in one job minus
        the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["job"] == job and rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            if rec["job"] == job:
                own = rec["end"] - rec["start"] - child_time[i]
                out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out

    def job_spans(self, job: int) -> int:
        return sum(1 for rec in self.spans if rec["job"] == job)
