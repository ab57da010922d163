"""The benchmark's own span recorder.

Kept apart from ``repro.obs`` on purpose: a later change to the
program's tracing cannot change how the benchmark measures.  A span is
``(name, start, end, parent)``; spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class NullRecorder:
    """Recorder of an untraced pass: every span is a no-op."""

    def span(self, name: str):
        return nullcontext()


class SpanRecorder:
    """Records nested spans with ``time.perf_counter`` stamps."""

    def __init__(self, pass_index: int = 0) -> None:
        self.pass_index = pass_index
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent: Optional[int] = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self) -> Dict[str, float]:
        """Total seconds per span name."""
        totals: Dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def coverage(self, root: str) -> float:
        """Share of the ``root`` span covered by its direct children."""
        root_index = next(i for i, s in enumerate(self.spans) if s[0] == root)
        _, start, end, _ = self.spans[root_index]
        covered = 0.0
        cursor = start
        children = sorted(
            (s[1], s[2]) for s in self.spans if s[3] == root_index
        )
        for child_start, child_end in children:
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        return covered / (end - start) if end > start else 0.0

    def records(self) -> List[dict]:
        return [
            {
                "pass": self.pass_index,
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


def write_spans(path, recorders: List[SpanRecorder]) -> None:
    """Write every recorder's spans as JSON lines."""
    with open(path, "w") as handle:
        for recorder in recorders:
            for record in recorder.records():
                handle.write(json.dumps(record) + "\n")
