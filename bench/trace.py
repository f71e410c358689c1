"""In-memory spans around the benchmark's own calls into each layer.

The program under test is not instrumented: a span is opened by the bench
immediately before it calls a layer's public function and closed when the
call returns.  Spans nest through a stack (only the bench's main thread
opens them; requests issued by load-generator threads are recorded
afterwards from their samples' timestamps).  A layer's *self* time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects ``(name, start, end, parent)`` spans for one run.

    A disabled tracer runs the wrapped code and records nothing, so
    workloads are written once.
    """

    def __init__(self, enabled: bool, run_id: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def record(self, name: str, start: float, end: float) -> None:
        """A span from timestamps the workload already took (per-op loops)."""
        if self.enabled:
            self.spans.append((name, start, end, self._stack[-1] if self._stack else -1))

    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the union of child intervals
        (children overlap when two load-generator threads were sending)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (_, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def total(self, name: str) -> float:
        """Total duration (children included) of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def first(self, name: str) -> Optional[int]:
        for index, span in enumerate(self.spans):
            if span[0] == name:
                return index
        return None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "run_id": self.run_id,
                    "id": index,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                handle.write(json.dumps(record) + "\n")
