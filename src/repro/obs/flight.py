"""Black-box flight recorder: a bounded ring of recent runtime events.

Tracing is opt-in and unbounded; the flight recorder is the opposite on
both axes — **always on** and **bounded**.  Every fabric keeps one small
preallocated ring per rank and overwrites the oldest record when full,
so a quiet month of steady state costs a fixed few KiB per rank and a
crash still has the last ``capacity`` events that led up to it.

The hot path is allocation-free by construction: each ring is a set of
preallocated numpy column arrays (timestamp, event code, two integer
arguments) and ``record()`` does four in-place scalar stores plus a
monotonic clock read.  Event *names* never appear on the hot path —
codes are small ints decoded against :data:`EVENT_NAMES` only when a
snapshot is taken.

On abort, ``WorkerError``, ``CorruptFrameError`` or ``PeerFailed`` the
transports assemble the per-rank snapshots into a **post-mortem bundle**
(schema ``repro.postmortem/v1``): the failure reason, the control-block
fail/abort state, per-rank clock alignment when known, and every rank's
recent events.  ``python -m repro postmortem <bundle>`` renders the
merged causal timeline (see :func:`render_postmortem`).

Event taxonomy (DESIGN.md §16): fabric events (send/recv/progress),
control events (abort/fail/peer-failed), integrity events
(corrupt-frame/NACK/retransmit), detector events
(suspect/clear/confirm/rejoin) and chaos injections (one code per fault
class, so a bundle shows what the seeded wire was doing when the run
died).
"""

from __future__ import annotations

import json
import os
import time
from time import perf_counter
from typing import Any, Dict, List, Optional

__all__ = [
    "POSTMORTEM_SCHEMA",
    "EVENT_NAMES",
    "FlightRecorder",
    "FlightBox",
    "build_postmortem",
    "dump_postmortem",
    "load_postmortem",
    "render_postmortem",
    "postmortem_dir",
]

POSTMORTEM_SCHEMA = "repro.postmortem/v1"

#: default ring capacity per rank — enough to span several WeiPipe turns
#: of send/recv plus the control events of a failure cascade.
DEFAULT_CAPACITY = 256

#: environment variable naming a directory for automatic bundle dumps.
POSTMORTEM_ENV = "REPRO_POSTMORTEM_DIR"

# -- event taxonomy -----------------------------------------------------------
# Codes are part of the bundle format; append, never renumber.

EV_SEND = 1            # a=dst, b=nbytes
EV_RECV = 2            # a=src, b=nbytes
EV_PROGRESS = 3        # a=rank, b=step
EV_ABORT = 4           # a=rank that called abort
EV_FAIL = 5            # a=failed rank
EV_PEER_FAILED = 6     # a=observing rank, b=fail epoch
EV_CORRUPT_FRAME = 7   # a=src of the bad frame
EV_NACK = 8            # a=src being NACKed, b=attempt
EV_RETRANSMIT = 9      # a=dst, b=attempt
EV_SUSPECT = 10        # a=suspected rank
EV_SUSPECT_CLEAR = 11  # a=cleared rank
EV_CONFIRM = 12        # a=confirmed-dead rank
EV_REJOIN = 13         # a=rejoining rank
EV_CHAOS_DELAY = 14    # a=src, b=dst
EV_CHAOS_DROP = 15     # a=src, b=dst
EV_CHAOS_DUP = 16      # a=src, b=dst
EV_CHAOS_BITFLIP = 17  # a=src, b=dst
EV_CHAOS_FLAP = 18     # a=src, b=dst
EV_CHAOS_STALL = 19    # a=rank
EV_CHAOS_CRASH = 20    # a=rank
EV_WORKER_ERROR = 21   # a=rank

EVENT_NAMES: Dict[int, str] = {
    EV_SEND: "send",
    EV_RECV: "recv",
    EV_PROGRESS: "progress",
    EV_ABORT: "abort",
    EV_FAIL: "fail_rank",
    EV_PEER_FAILED: "peer_failed",
    EV_CORRUPT_FRAME: "corrupt_frame",
    EV_NACK: "nack",
    EV_RETRANSMIT: "retransmit",
    EV_SUSPECT: "suspect",
    EV_SUSPECT_CLEAR: "suspect_clear",
    EV_CONFIRM: "confirm_dead",
    EV_REJOIN: "rejoin",
    EV_CHAOS_DELAY: "chaos_delay",
    EV_CHAOS_DROP: "chaos_drop",
    EV_CHAOS_DUP: "chaos_duplicate",
    EV_CHAOS_BITFLIP: "chaos_bitflip",
    EV_CHAOS_FLAP: "chaos_flap",
    EV_CHAOS_STALL: "chaos_stall",
    EV_CHAOS_CRASH: "chaos_crash",
    EV_WORKER_ERROR: "worker_error",
}

#: chaos fault name (as used by ``ChaosStats``) -> event code.
CHAOS_EVENT_OF = {
    "delay": EV_CHAOS_DELAY,
    "drop": EV_CHAOS_DROP,
    "duplicate": EV_CHAOS_DUP,
    "bitflip": EV_CHAOS_BITFLIP,
    "flap": EV_CHAOS_FLAP,
    "rank-flap": EV_CHAOS_FLAP,  # b = -1: every link of the rank
    "stall": EV_CHAOS_STALL,
    "crash": EV_CHAOS_CRASH,
}


class FlightRecorder:
    """One rank's bounded event ring.  Single-writer, allocation-free.

    The columns are preallocated numpy arrays; ``record`` overwrites the
    slot at ``n % capacity`` and bumps the running count, so the ring
    always holds the *most recent* ``capacity`` events and ``dropped``
    says how many older ones were overwritten.
    """

    __slots__ = ("rank", "capacity", "enabled", "_ts", "_code", "_a", "_b", "_n")

    def __init__(self, rank: int, capacity: int = DEFAULT_CAPACITY):
        import numpy as np

        self.rank = rank
        self.capacity = int(capacity)
        self.enabled = True
        self._ts = np.zeros(self.capacity, dtype=np.float64)
        self._code = np.zeros(self.capacity, dtype=np.int64)
        self._a = np.zeros(self.capacity, dtype=np.int64)
        self._b = np.zeros(self.capacity, dtype=np.int64)
        self._n = 0

    def record(self, code: int, a: int = 0, b: int = 0) -> None:
        i = self._n % self.capacity
        self._ts[i] = perf_counter()
        self._code[i] = code
        self._a[i] = a
        self._b[i] = b
        self._n += 1

    def __len__(self) -> int:
        return min(self._n, self.capacity)

    @property
    def dropped(self) -> int:
        return max(0, self._n - self.capacity)

    def events(self) -> List[Dict]:
        """Decoded events, oldest surviving record first."""
        n = len(self)
        start = self._n - n
        out: List[Dict] = []
        for k in range(start, self._n):
            i = k % self.capacity
            code = int(self._code[i])
            out.append({
                "ts": float(self._ts[i]),
                "event": EVENT_NAMES.get(code, f"event_{code}"),
                "code": code,
                "a": int(self._a[i]),
                "b": int(self._b[i]),
            })
        return out

    def snapshot(self) -> Dict:
        """JSON-ready view: rank, drop count, decoded events in order."""
        return {
            "rank": self.rank,
            "capacity": self.capacity,
            "recorded": self._n,
            "dropped": self.dropped,
            "events": self.events(),
        }


class FlightBox:
    """The per-fabric registry: one ring per rank, plus snapshot glue.

    Thread fabrics hold all ``world`` rings (one writer thread each);
    a process fabric holds the full set too, records its own rank's
    events on its own ring and the chaos events it injects on the ring
    of the sender they are about — the parent reassembles the box from
    per-child snapshots at join time, merging by timestamp.
    """

    __slots__ = ("world", "rings")

    def __init__(self, world: int, capacity: int = DEFAULT_CAPACITY):
        self.world = world
        self.rings = [FlightRecorder(r, capacity) for r in range(world)]

    def rank(self, r: int) -> FlightRecorder:
        return self.rings[r]

    def snapshot(self) -> Dict[str, Dict]:
        return {str(r.rank): r.snapshot() for r in self.rings}


# -- post-mortem bundles ------------------------------------------------------


def build_postmortem(
    backend: str,
    world: int,
    reason: Dict[str, Any],
    flights: Dict[str, Dict],
    *,
    failed: Optional[Dict] = None,
    aborted: Optional[str] = None,
    clock: Optional[Dict] = None,
) -> Dict:
    """Assemble the ``repro.postmortem/v1`` bundle document.

    ``flights`` maps rank (as a string key, JSON-style) to a
    :meth:`FlightRecorder.snapshot`; ``reason`` carries at least
    ``{"kind": ..., "detail": ...}``; ``clock`` is the per-rank
    alignment dict when the launch ran the clock handshake.
    """
    return {
        "schema": POSTMORTEM_SCHEMA,
        "created_unix": time.time(),
        "backend": backend,
        "world": world,
        "reason": dict(reason),
        "aborted": aborted,
        "failed": {str(k): list(v) for k, v in (failed or {}).items()},
        "clock": clock or {},
        "ranks": flights,
    }


def dump_postmortem(bundle: Dict, directory: str) -> str:
    """Write a bundle into ``directory`` and return the file path."""
    os.makedirs(directory, exist_ok=True)
    stamp = int(bundle.get("created_unix", time.time()) * 1e3)
    path = os.path.join(
        directory, f"postmortem-{bundle.get('backend', 'run')}-{stamp}.json"
    )
    with open(path, "w") as f:
        json.dump(bundle, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def postmortem_dir() -> Optional[str]:
    """The auto-dump directory, if the user configured one."""
    d = os.environ.get(POSTMORTEM_ENV, "").strip()
    return d or None


def load_postmortem(path: str) -> Dict:
    with open(path) as f:
        bundle = json.load(f)
    if bundle.get("schema") != POSTMORTEM_SCHEMA:
        raise ValueError(
            f"{path}: schema {bundle.get('schema')!r} is not "
            f"{POSTMORTEM_SCHEMA!r}"
        )
    return bundle


def _aligned_ts(ev_ts: float, rank: str, clock: Dict) -> float:
    info = clock.get(rank)
    if info:
        return ev_ts + float(info.get("offset_s", 0.0))
    return ev_ts


def render_postmortem(bundle: Dict, last: int = 20) -> str:
    """Human-readable reconstruction of the failure.

    Sections: the failure reason and control-block state, per-rank
    summaries (event counts, drops, final event), and the merged causal
    timeline — every rank's recent events on one clock (child timestamps
    shifted by the recorded per-rank offset), most recent ``last``
    events per rank, sorted by aligned time.
    """
    lines: List[str] = []
    reason = bundle.get("reason", {})
    lines.append(
        f"post-mortem: backend={bundle.get('backend')} "
        f"world={bundle.get('world')} schema={bundle.get('schema')}"
    )
    lines.append(
        f"  reason: {reason.get('kind', 'unknown')}: "
        f"{reason.get('detail', '')}"
    )
    if bundle.get("aborted"):
        lines.append(f"  aborted: {bundle['aborted']}")
    for r, (why, *rest) in sorted(bundle.get("failed", {}).items()):
        step = rest[0] if rest else None
        lines.append(f"  failed rank {r}: {why} (step {step})")
    clock = bundle.get("clock", {})
    for r, info in sorted(clock.items()):
        lines.append(
            f"  clock rank {r}: offset {info.get('offset_s', 0.0) * 1e6:+.1f}us "
            f"+-{info.get('skew_bound_s', 0.0) * 1e6:.1f}us "
            f"({info.get('method', '?')})"
        )

    ranks = bundle.get("ranks", {})
    lines.append("per-rank summary:")
    for r in sorted(ranks, key=lambda s: int(s)):
        snap = ranks[r]
        evs = snap.get("events", [])
        tail = evs[-1] if evs else None
        counts: Dict[str, int] = {}
        for ev in evs:
            counts[ev["event"]] = counts.get(ev["event"], 0) + 1
        heal = {
            k: v for k, v in counts.items()
            if k in ("retransmit", "nack", "corrupt_frame", "suspect",
                     "suspect_clear", "confirm_dead", "rejoin")
            or k.startswith("chaos_")
        }
        lines.append(
            f"  rank {r}: {snap.get('recorded', len(evs))} event(s), "
            f"{snap.get('dropped', 0)} overwritten"
            + (f", heal/chaos {heal}" if heal else "")
            + (
                f"; last: {tail['event']}(a={tail['a']}, b={tail['b']})"
                if tail else "; no events"
            )
        )

    merged: List[tuple] = []
    for r, snap in ranks.items():
        for ev in snap.get("events", [])[-last:]:
            merged.append((_aligned_ts(ev["ts"], r, clock), int(r), ev))
    merged.sort(key=lambda t: (t[0], t[1]))
    lines.append(f"merged timeline (last {last} events per rank, aligned):")
    t0 = merged[0][0] if merged else 0.0
    for ts, r, ev in merged:
        lines.append(
            f"  {(ts - t0) * 1e3:10.3f}ms  rank {r:<2d} "
            f"{ev['event']:<16s} a={ev['a']} b={ev['b']}"
        )
    if not merged:
        lines.append("  (no events recorded)")
    return "\n".join(lines)
