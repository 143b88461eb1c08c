"""Wall-clock spans around the harness's own calls into each layer.

The engine already traces *simulated* time (``repro.trace.Tracer``).
This recorder is its wall-clock twin for the benchmark: one span per
call the harness makes across a layer boundary (``setup.ring``,
``setup.publish``, ``run.parse``, ``run.execute``, ``verify.oracle``,
each microbenchmark), with the enclosing span as parent and the
workload as the shared identifier.  Spans stay in memory and are written
once, when the benchmark ends; nothing inside the engine is touched.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["SpanRecorder"]


class SpanRecorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "type": "span",
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
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

    def timed(self, name: str, fn: Callable, *args: Any) -> Tuple[Any, float]:
        """Call ``fn(*args)`` inside a span; return (result, seconds)."""
        with self.span(name) as record:
            result = fn(*args)
        return result, record["end"] - record["start"]

    def write(self, path: pathlib.Path,
              extra: Iterable[Dict[str, Any]] = ()) -> None:
        """One JSON object per line: the spans, then *extra* records
        (simulated-time tracer events, self-time tables)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in (*self.spans, *extra):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
