"""In-memory span recording for the traced benchmark run.

A span is (id, name, start, end, parent id), with times in seconds from
the tracer's creation.  Spans are opened only by the benchmark's own
code, around calls into the package's public functions; nothing inside
the package is instrumented.  A disabled tracer records nothing, so the
untraced runs pay one attribute test per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = [sid, name, perf_counter() - self._t0, None, parent]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = perf_counter() - self._t0
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span with this name, in seconds."""
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[3] is not None]

    def to_json(self) -> List[dict]:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
