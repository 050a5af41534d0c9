"""Per-rank runtime tracer with Chrome trace-event export.

The runtime is threaded — one Python thread per rank on one in-process
fabric — so the tracer mirrors that shape: each rank owns a private
append-only event buffer (:class:`RankTracer`) that only its own thread
writes, making the hot path lock-free.  The shared :class:`Tracer` holds
the buffer registry (locked only at buffer *creation*), the trace epoch,
and the exporters.

Tracing is **opt-in and free when off**: every hot call site either
checks the ``enabled`` flag or goes through :data:`NULL_TRACER`, whose
``span``/``instant``/``complete`` methods are allocation-free no-ops
returning shared singletons.  Traced runs are bit-exact with untraced
runs by construction — the tracer only reads the monotonic clock and
appends tuples; it never touches payloads or numerics.

Event model (the *stable* schema — see DESIGN.md §11):

* **spans** (``ph: "X"`` complete events) — a named interval on one
  rank's timeline.  Emitted either via the ``with tracer.span(name,
  cat)`` context manager or, on hot paths that already read the clock,
  via ``tracer.complete(name, cat, start, duration, args)``.
* **instants** (``ph: "i"``) — point events (message sends, chaos
  injections, recovery milestones).
* **counters** (``ph: "C"``) — numeric series (pool allocations).

Export: :meth:`Tracer.chrome_trace` / :meth:`Tracer.dump` — Chrome
trace-event JSON (object form, ``{"traceEvents": [...]}``) loadable in
Perfetto / ``chrome://tracing``.  One *pid* per rank, with process name
metadata ``rank <r>``; timestamps are microseconds relative to the
trace epoch.  The document carries ``metadata`` (workload dimensions,
strategy, wire) so the analyzer (:mod:`repro.obs.analyze`) can
reconcile a trace against :mod:`repro.sim.costmodel` without
side-channel configuration.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "Tracer",
    "RankTracer",
    "NullTracer",
    "NullRankTracer",
    "NULL_TRACER",
    "NULL_RANK_TRACER",
]

#: schema tag embedded in every export — bump on any shape change.
TRACE_SCHEMA = "repro.trace/v1"


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_buf", "_name", "_cat", "_args", "_t0")

    def __init__(self, buf: "RankTracer", name: str, cat: str, args):
        self._buf = buf
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t0 = self._t0
        self._buf.complete(self._name, self._cat, t0, perf_counter() - t0, self._args)
        return False


class _NullSpan:
    """Shared no-op span: entering/exiting allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class RankTracer:
    """One rank's event buffer.  Single-writer: only the owning rank's
    thread may append, which is what makes the hot path lock-free."""

    __slots__ = ("pid", "tid", "_events", "enabled")

    def __init__(self, pid: int, tid: int = 0):
        self.pid = pid
        self.tid = tid
        #: (ph, name, cat, ts, dur, args) tuples; ts/dur in seconds from
        #: the owning Tracer's epoch.
        self._events: List[Tuple] = []
        self.enabled = True

    # -- recording -------------------------------------------------------------

    def span(self, name: str, cat: str = "", args: Optional[Dict] = None) -> _Span:
        """``with trace.span("F", "compute", {"slot": 0}): ...``"""
        return _Span(self, name, cat, args)

    def complete(
        self, name: str, cat: str, start: float, duration: float,
        args: Optional[Dict] = None,
    ) -> None:
        """Record a finished interval from clock readings the caller
        already took (the hot-path form: no context-manager object)."""
        self._events.append(("X", name, cat, start, duration, args))

    def instant(self, name: str, cat: str = "", args: Optional[Dict] = None) -> None:
        self._events.append(("i", name, cat, perf_counter(), 0.0, args))

    def counter(self, name: str, value: float, cat: str = "") -> None:
        self._events.append(("C", name, cat, perf_counter(), 0.0, {"value": value}))

    def __len__(self) -> int:
        return len(self._events)


class Tracer:
    """The shared tracer: rank-buffer registry, epoch, exporters."""

    enabled = True

    def __init__(self, metadata: Optional[Dict] = None):
        self._lock = threading.Lock()
        self._buffers: Dict[Tuple[int, int], RankTracer] = {}
        self.metadata: Dict = dict(metadata) if metadata else {}
        #: trace epoch: event timestamps are relative to this.
        self.epoch = perf_counter()

    def rank(self, pid: int, tid: int = 0) -> RankTracer:
        """The (created-on-first-use) buffer for one rank's thread."""
        key = (pid, tid)
        buf = self._buffers.get(key)
        if buf is None:
            with self._lock:
                buf = self._buffers.get(key)
                if buf is None:
                    buf = self._buffers[key] = RankTracer(pid, tid)
        return buf

    # -- export ----------------------------------------------------------------

    def events(self) -> Iterable[Dict]:
        """All events as Chrome trace-event dicts (ts/dur in µs from the
        epoch), ordered by timestamp."""
        out: List[Dict] = []
        with self._lock:
            buffers = list(self._buffers.values())
        for buf in buffers:
            pid, tid = buf.pid, buf.tid
            for ph, name, cat, ts, dur, args in list(buf._events):
                ev: Dict[str, Any] = {
                    "ph": ph,
                    "name": name,
                    "cat": cat or "misc",
                    "pid": pid,
                    "tid": tid,
                    "ts": (ts - self.epoch) * 1e6,
                }
                if ph == "X":
                    ev["dur"] = dur * 1e6
                if ph == "i":
                    ev["s"] = "t"  # thread-scoped instant
                if args:
                    ev["args"] = _jsonable(args)
                out.append(ev)
        out.sort(key=lambda e: e["ts"])
        return out

    def chrome_trace(self) -> Dict:
        """The full Chrome trace-event *object form* document."""
        events: List[Dict] = []
        with self._lock:
            pids = sorted({pid for pid, _tid in self._buffers})
        for pid in pids:
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "ts": 0, "args": {"name": f"rank {pid}"},
            })
        events.extend(self.events())
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"schema": TRACE_SCHEMA, **_jsonable(self.metadata)},
        }

    def dump(self, path: str) -> None:
        """Write Chrome trace-event JSON (Perfetto / chrome://tracing)."""
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f, separators=(",", ":"))
            f.write("\n")


class NullRankTracer:
    """Allocation-free no-op rank buffer (the disabled-path singleton).

    Every method returns a shared object or ``None``; calling them in a
    steady-state loop allocates nothing, which the overhead regression
    test pins down by identity checks.
    """

    __slots__ = ()

    pid = -1
    tid = 0
    enabled = False

    def span(self, name: str, cat: str = "", args: Optional[Dict] = None) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name, cat, start, duration, args=None) -> None:
        return None

    def instant(self, name, cat="", args=None) -> None:
        return None

    def counter(self, name, value, cat="") -> None:
        return None

    def __len__(self) -> int:
        return 0


NULL_RANK_TRACER = NullRankTracer()


class NullTracer:
    """Disabled tracer: hands out the shared :class:`NullRankTracer`."""

    __slots__ = ()

    enabled = False
    metadata: Dict = {}

    def rank(self, pid: int, tid: int = 0) -> NullRankTracer:
        return NULL_RANK_TRACER

    def events(self) -> List[Dict]:
        return []

    def chrome_trace(self) -> Dict:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "metadata": {"schema": TRACE_SCHEMA}}


NULL_TRACER = NullTracer()


def _jsonable(obj):
    """Best-effort conversion to JSON-serialisable values (tags are
    tuples; numpy scalars appear in metrics)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return repr(obj)
