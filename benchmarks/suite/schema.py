"""The ``repro.benchsuite/v1`` result file and its validator.

The catalogue of names (workloads, end-to-end metrics with unit,
direction and bound, per-layer metrics with unit and direction) is the
root ``BENCHMARK.json``; a result is valid when it carries exactly that
catalogue, each entry with the right unit and a finite number.

.. code-block:: text

    {schema, created, mode, seed, seconds, provenance{...},
     workloads[{name, strategy, backend, world, shape{...}, tokens_per_call,
                attempted, failed, failures[{call, reason}], correct,
                calls{timed, wall_s, walls_s, calib_gflops, ref_gflops, losses,
                      oracle_losses},
                end_to_end{name: {value, unit, n, min, max, better, bound}},
                per_layer{name: {value, unit}}}]}
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

__all__ = ["SCHEMA", "load_catalogue", "validate"]

SCHEMA = "repro.benchsuite/v1"

PROVENANCE_KEYS = (
    "git_sha", "nproc", "cpu_model", "python", "numpy", "blas",
    "blas_threads", "seed", "calib.matmul_gflops",
)
WORKLOAD_KEYS = (
    "name", "strategy", "backend", "world", "shape", "tokens_per_call",
    "attempted", "failed", "failures", "correct", "calls", "end_to_end",
    "per_layer",
)


def load_catalogue(root: Path) -> Dict:
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def _check_metrics(where: str, got: Dict, want: List[Dict], extra_keys=()) -> List[str]:
    problems = []
    names = [m["name"] for m in want]
    for name in sorted(set(got) - set(names)):
        problems.append(f"{where}: unknown metric {name!r}")
    for m in want:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"{where}: missing metric {m['name']!r}")
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(
                f"{where}: {m['name']} has unit {entry.get('unit')!r}, "
                f"catalogue says {m['unit']!r}"
            )
        for key in ("value",) + tuple(extra_keys):
            v = entry.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                problems.append(f"{where}: {m['name']}.{key} is not a finite number")
    return problems


def validate(doc: Dict, catalogue: Dict, phases=("end_to_end", "per_layer")) -> List[str]:
    """Problems found in ``doc`` (empty when valid).  ``phases`` names the
    metric groups this invocation measured; the other group must be empty."""
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("created", "mode", "seed", "seconds", "provenance", "workloads"):
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    for key in PROVENANCE_KEYS:
        if key not in doc.get("provenance", {}):
            problems.append(f"provenance: missing {key!r}")
    known = {w["name"] for w in catalogue["workloads"]}
    for w in doc.get("workloads", []):
        where = f"workload {w.get('name')!r}"
        if w.get("name") not in known:
            problems.append(f"{where}: not in the catalogue")
        for key in WORKLOAD_KEYS:
            if key not in w:
                problems.append(f"{where}: missing key {key!r}")
        if not isinstance(w.get("attempted"), int) or w.get("attempted", 0) < 1:
            problems.append(f"{where}: attempted must be a whole number >= 1")
        if w.get("failed") != len(w.get("failures", [])):
            problems.append(f"{where}: failed does not count the failures listed")
        if w.get("correct") != (w.get("failed") == 0):
            problems.append(f"{where}: correct disagrees with failed")
        for group, extra in (("end_to_end", ("n", "min", "max")), ("per_layer", ())):
            got = w.get(group, {})
            if group in phases:
                problems += _check_metrics(f"{where} {group}", got, catalogue[group], extra)
            elif got:
                problems.append(f"{where}: {group} reported but not measured")
    return problems
