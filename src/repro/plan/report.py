"""The ``repro.plan/v2`` report: build, validate, render.

The report is the planner's single artefact: the spec it searched, the
pruning ledger (and what the search took), every ranked feasible
candidate with its simulated numbers, a sample of the memory-rejected
configs (with the predicted peak that killed them), and — when the
predict-then-validate loop ran — the live validation verdict of the top
pick, including the full ``reconcile()`` output it was gated on.  A
ranked row is one configuration — (strategy, degree, dp, microbatch,
precision) — and no two rows share one (DESIGN.md §15).

:func:`validate_plan_report` is the CI smoke gate: structural checks in
the style of :func:`repro.obs.schema.validate_chrome_trace`, returning a
list of human-readable problems (empty = valid).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .search import SearchResult
from .spec import PlanSpec

__all__ = ["PLAN_SCHEMA", "build_report", "validate_plan_report",
           "format_report"]

PLAN_SCHEMA = "repro.plan/v2"

#: how many memory-rejected configs the report keeps (the count is
#: always exact; the list is a worst-offenders sample).
_REJECTED_SAMPLE = 16

_CANDIDATE_KEYS = (
    "rank", "strategy", "world", "degree", "dp", "microbatch",
    "n_microbatches", "precision", "recompute", "predicted",
)
#: what makes two ranked rows the same configuration.
_CONFIG_KEYS = ("strategy", "degree", "dp", "microbatch", "precision")
_PREDICTED_KEYS = (
    "tokens_per_s_per_gpu", "tokens_per_s", "iteration_s",
    "peak_memory_bytes",
)


def build_report(
    spec: PlanSpec,
    result: SearchResult,
    validation: Optional[Dict] = None,
) -> Dict:
    """Assemble the ``repro.plan/v2`` document."""
    candidates = []
    for rank, ev in enumerate(result.feasible, start=1):
        entry = dict(rank=rank, **ev.candidate.as_dict())
        entry["predicted"] = {
            "tokens_per_s_per_gpu": ev.tokens_per_s_per_gpu,
            "tokens_per_s": ev.tokens_per_s,
            "iteration_s": ev.iteration_s,
            "peak_memory_bytes": ev.peak_memory_bytes,
        }
        candidates.append(entry)
    worst = sorted(
        result.memory_rejected, key=lambda e: -e.peak_memory_bytes
    )[:_REJECTED_SAMPLE]
    rejected = [
        dict(
            **ev.candidate.as_dict(),
            reason="memory",
            peak_memory_bytes=ev.peak_memory_bytes,
            over_budget_bytes=ev.peak_memory_bytes - result.budget_bytes,
        )
        for ev in worst
    ]
    return {
        "schema": PLAN_SCHEMA,
        "spec": spec.to_dict(),
        "search": {
            "total": result.total,
            "feasible": len(result.feasible),
            "memory_rejected": len(result.memory_rejected),
            "shape_rejected": result.shape_rejected,
            "memory_budget_bytes": result.budget_bytes,
            "wall_s": result.wall_s,
        },
        "candidates": candidates,
        "rejected_sample": rejected,
        "validation": validation if validation is not None else {"ran": False},
    }


def validate_plan_report(report: Dict, max_errors: int = 20) -> List[str]:
    """Structural validation; returns problems (empty = valid)."""
    errors: List[str] = []

    def err(msg: str) -> bool:
        errors.append(msg)
        return len(errors) >= max_errors

    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != PLAN_SCHEMA:
        err(f"schema is {report.get('schema')!r}, want {PLAN_SCHEMA!r}")
    for key in ("spec", "search", "candidates", "rejected_sample",
                "validation"):
        if key not in report:
            err(f"missing top-level key {key!r}")
    search = report.get("search", {})
    if isinstance(search, dict):
        for key in ("total", "feasible", "memory_rejected", "shape_rejected",
                    "memory_budget_bytes", "wall_s"):
            if key not in search:
                err(f"search: missing {key!r}")
    else:
        err("search is not an object")
    cands = report.get("candidates", [])
    if not isinstance(cands, list):
        return errors + ["candidates is not a list"]
    prev = float("inf")
    seen = set()
    for i, c in enumerate(cands):
        if not isinstance(c, dict):
            if err(f"candidates[{i}]: not an object"):
                break
            continue
        missing = [k for k in _CANDIDATE_KEYS if k not in c]
        if missing:
            if err(f"candidates[{i}]: missing keys {missing}"):
                break
            continue
        if c["rank"] != i + 1:
            if err(f"candidates[{i}]: rank {c['rank']} != {i + 1}"):
                break
        config = tuple(c[k] for k in _CONFIG_KEYS)
        if config in seen:
            if err(f"candidates[{i}]: duplicate configuration {config}"):
                break
        seen.add(config)
        pred = c["predicted"]
        miss = [k for k in _PREDICTED_KEYS if k not in pred]
        if miss:
            if err(f"candidates[{i}].predicted: missing keys {miss}"):
                break
            continue
        tps = pred["tokens_per_s_per_gpu"]
        if not isinstance(tps, (int, float)) or tps <= 0:
            if err(f"candidates[{i}]: tokens_per_s_per_gpu must be > 0"):
                break
        elif tps > prev + 1e-12:
            if err(f"candidates[{i}]: not sorted by predicted throughput"):
                break
        else:
            prev = tps
    val = report.get("validation")
    if isinstance(val, dict):
        if "ran" not in val:
            err("validation: missing 'ran'")
        elif val["ran"]:
            for key in ("strategy", "world", "passed", "reconcile"):
                if key not in val:
                    err(f"validation: missing {key!r}")
    elif val is not None:
        err("validation is not an object")
    return errors


def format_report(report: Dict, top: int = 10) -> str:
    """Human-readable plan summary for the CLI."""
    search = report["search"]
    lines = [
        f"searched {search['total']} configs in {search['wall_s']:.2f} s: "
        f"{search['feasible']} feasible, "
        f"{search['memory_rejected']} over the "
        f"{search['memory_budget_bytes'] / 2**30:.0f} GiB budget, "
        f"{search['shape_rejected']} unbuildable",
        "",
        f"{'#':>3} {'strategy':<20} {'deg':>4} {'dp':>3} {'G':>4} "
        f"{'N':>5} {'prec':>5} {'tok/s/GPU':>11} {'mem GB':>7}",
    ]
    for c in report["candidates"][:top]:
        p = c["predicted"]
        lines.append(
            f"{c['rank']:>3} {c['strategy']:<20} {c['degree']:>4} "
            f"{c['dp']:>3} {c['microbatch']:>4} {c['n_microbatches']:>5} "
            f"{c['precision']:>5} {p['tokens_per_s_per_gpu']:>11,.1f} "
            f"{p['peak_memory_bytes'] / 2**30:>7.1f}"
        )
    if len(report["candidates"]) > top:
        lines.append(f"... and {len(report['candidates']) - top} more")
    if report["rejected_sample"]:
        r = report["rejected_sample"][0]
        lines.append(
            f"\nworst memory reject: {r['strategy']} degree={r['degree']} "
            f"G={r['microbatch']} {r['precision']} -> "
            f"{r['peak_memory_bytes'] / 2**30:.1f} GB "
            f"({r['over_budget_bytes'] / 2**30:.1f} GB over)"
        )
    val = report.get("validation", {})
    if val.get("ran"):
        head = (f"\nvalidation ({val['strategy']} @ world {val['world']}): "
                f"{'PASS' if val['passed'] else 'FAIL'} — ")
        if val["reconcile"] is None:
            finite = all(math.isfinite(l) for l in val["losses"])
            lines.append(f"{head}{val['gate']} gate, losses "
                         f"{'finite' if finite else 'NOT finite'}")
        else:
            wall = val["reconcile"].get("iteration_wall", {})
            lines.append(
                f"{head}wall predicted "
                f"{wall.get('predicted_s', 0) * 1e3:.1f} ms vs measured "
                f"{wall.get('measured_s', 0) * 1e3:.1f} ms "
                f"(ratio {wall.get('ratio', 0):.2f}, "
                f"tol {wall.get('tolerance_factor', 0):.0f}x)"
            )
    else:
        lines.append("\nvalidation: not run (--no-validate)")
    return "\n".join(lines)
