"""ASCII timeline renderer — the repository's version of Figures 1-4.

Renders one row per worker, one column per time bucket, with a letter
for the dominant compute kind in that bucket:

* ``F`` forward, ``B`` backward (or B pass), ``W`` W pass or the
  formation of factored gradients, ``U`` the ring's update,
* ``*`` a WeiPipe turn doing more than one op (forward + backward),
* ``.`` idle (a bubble).

``render_timeline(built)`` simulates the schedule if needed and returns
the string; the figure benches print these for the paper's four
schedule diagrams so the shapes can be eyeballed against the paper.
"""

from __future__ import annotations

from typing import Optional

from .engine import SimResult, simulate
from .schedules.base import BuiltSchedule

__all__ = ["render_timeline"]


_KIND_CHAR = {"F": "F", "B": "B", "W": "W", "update": "U"}


def _task_char(meta: dict) -> str:
    kind = meta.get("kind")
    if kind == "turn":
        ops = [c for c, key in (("F", "fwd"), ("B", "bwd"), ("W", "wpass"))
               if meta.get(key) is not None]
        if len(ops) > 1 or meta.get("busy"):
            return "*"
        return ops[0] if ops else "."
    return _KIND_CHAR.get(kind, "?")


def render_timeline(
    built: BuiltSchedule,
    width: int = 100,
    sim: Optional[SimResult] = None,
    title: Optional[str] = None,
) -> str:
    """Render the compute streams of a built schedule as ASCII art."""
    if sim is None:
        sim = simulate(built.graph)
    makespan = sim.makespan
    if makespan <= 0:
        return "(empty schedule)"
    workers = built.compute_workers or list(range(built.world_size))
    bucket = makespan / width

    rows = {}
    for w in workers:
        rows[w] = [("." , 0.0)] * width  # (char, coverage) per bucket
    cover = {w: [0.0] * width for w in workers}
    chars = {w: ["."] * width for w in workers}

    for tid, task in sim.graph.tasks.items():
        w = task.meta.get("worker")
        if w not in rows or task.duration <= 0:
            continue
        ch = _task_char(task.meta)
        s, e = sim.start[tid], sim.finish[tid]
        b0 = int(s / bucket)
        b1 = min(width - 1, int(e / bucket))
        for b in range(b0, b1 + 1):
            lo = max(s, b * bucket)
            hi = min(e, (b + 1) * bucket)
            c = max(0.0, hi - lo)
            if c > cover[w][b]:
                cover[w][b] = c
                chars[w][b] = ch

    lines = []
    if title:
        lines.append(title)
    lines.append(f"makespan = {makespan * 1e3:.2f} ms   ({width} cols)")
    for w in workers:
        lines.append(f"worker {w:>2} |{''.join(chars[w])}|")
    lines.append("legend: F fwd, B bwd, W wgrad, * fwd+bwd turn, U update, . idle")
    return "\n".join(lines)
