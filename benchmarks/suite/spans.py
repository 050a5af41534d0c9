"""The benchmark's own spans, recorded around its calls into each layer.

Spans are kept in memory and written by the caller when the benchmark
ends.  Each is ``{id, name, start, end, parent, workload}`` with times
in seconds from the recorder's creation and ``parent`` the id of the
enclosing span (``None`` at the top).  A span's *self time* is its
duration minus the part its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List

__all__ = ["SpanRecorder", "self_times", "write_jsonl"]


class SpanRecorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._epoch = perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter() - self._epoch,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter() - self._epoch


def self_times(spans: Iterable[Dict]) -> Dict[str, float]:
    """Self time summed per ``(workload, name)`` key ``"workload/name"``.

    Children of one span never overlap (the recorder is a stack), so the
    covered part is the sum of the children's durations.
    """
    spans = list(spans)
    covered: Dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["workload"], s["parent"])
            covered[key] = covered.get(key, 0.0) + (s["end"] - s["start"])
    out: Dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - covered.get((s["workload"], s["id"]), 0.0)
        key = f'{s["workload"]}/{s["name"]}'
        out[key] = out.get(key, 0.0) + own
    return out


def write_jsonl(path: str, spans: Iterable[Dict]) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s, separators=(",", ":")) + "\n")
