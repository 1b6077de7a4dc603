"""In-memory spans for the traced benchmark run.

A span records its name, start, end and parent. Spans stay in a list until
the traced process has done its work and are then written out; nothing is
written while the work is being timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def duration(span: dict) -> float:
    return span["end"] - span["start"]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as span ``name``, a child of the innermost open span."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
