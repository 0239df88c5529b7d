"""In-memory spans for the benchmark's traced mode.

A span is (id, name, start, end, parent). Spans are recorded by the
benchmark around its calls into each layer of the program (the program
itself carries no spans) and written as JSON lines when the run ends.
With tracing off every method is a no-op, so the timed path is the same
code in both modes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def begin(self, name: str, start: float | None = None) -> int:
        """Open a span (child of the innermost open span); returns its id."""
        if not self.enabled:
            return -1
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "start": time.perf_counter() if start is None else start,
                           "end": None,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int, end: float | None = None) -> None:
        if not self.enabled:
            return
        self.spans[sid]["end"] = time.perf_counter() if end is None else end
        self._stack.remove(sid)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover
        (children of one span do not overlap, so their durations add).
        Spans still open are left out."""
        done = [s for s in self.spans if s["end"] is not None]
        child = [0.0] * len(self.spans)
        for s in done:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in done:
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - child[s["id"]])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
