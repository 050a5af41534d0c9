#!/usr/bin/env python3
"""Compare two ``repro.benchsuite/v1`` result files: A is the base, B the change.

    python benchmarks/suite/compare.py A.json B.json

For every (workload, end-to-end metric) it prints both medians, the
ratio B/A, the bound (taken from A) and a verdict:

* ``worse`` — B is worse than A by more than the bound;
* ``unresolved`` — either side's own min-max range is wider than the
  bound, so neither "unchanged" nor (unless B's whole range is worse
  than A's whole range) "worse" can be told from noise;
* ``ok`` — otherwise.

The exact counts (bytes and messages on the wire, steady-state pool
allocations) must repeat exactly when both files carry them.  Exit
status is non-zero on any ``worse``, on a count that differs, or when B
failed a higher share of the operations it attempted.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

EXACT_COUNTS = (
    "runtime.wire_bytes_per_token",
    "runtime.messages_per_iter",
    "runtime.bytes_per_iter",
    "core.pool_steady_allocs_per_iter",
)


def _load(path: str) -> Dict[str, Dict]:
    with open(path) as f:
        doc = json.load(f)
    return {w["name"]: w for w in doc["workloads"]}


def _worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def _range_share(m: Dict) -> float:
    return (m["max"] - m["min"]) / m["value"] if m["value"] else 0.0


def verdict(a: Dict, b: Dict) -> Tuple[str, float]:
    better, bound = a["better"], a["bound"]
    worse_by = _worse_by(a["value"], b["value"], better)
    noisy = max(_range_share(a), _range_share(b)) > bound
    if better == "higher":
        apart = b["max"] < a["min"]
    else:
        apart = b["min"] > a["max"]
    if worse_by > bound:
        return ("unresolved" if noisy and not apart else "worse"), worse_by
    return ("unresolved" if noisy else "ok"), worse_by


def compare(a_doc: Dict[str, Dict], b_doc: Dict[str, Dict]) -> Tuple[List[str], bool]:
    lines: List[str] = []
    bad = False
    for name, a in a_doc.items():
        b = b_doc.get(name)
        if b is None:
            lines.append(f"{name}: missing from B")
            bad = True
            continue
        for metric, am in a["end_to_end"].items():
            bm = b["end_to_end"].get(metric)
            if bm is None:
                continue
            status, worse_by = verdict(am, bm)
            bad |= status == "worse"
            ratio = bm["value"] / am["value"] if am["value"] else float("nan")
            lines.append(
                f"{name} {metric}: A {am['value']:.6g} B {bm['value']:.6g} "
                f"{am['unit']}  B/A {ratio:.4f} (base {am['value']:.6g})  "
                f"worse by {100 * worse_by:+.2f} % of bound {100 * am['bound']:.0f} %  "
                f"{status}"
            )
        for metric in EXACT_COUNTS:
            av = a["per_layer"].get(metric)
            bv = b["per_layer"].get(metric)
            if av is None or bv is None:
                continue
            same = av["value"] == bv["value"]
            bad |= not same
            lines.append(
                f"{name} {metric}: A {av['value']:.12g} B {bv['value']:.12g} "
                f"{av['unit']}  {'same' if same else 'DIFFERS'}"
            )
        fa = a["failed"] / a["attempted"]
        fb = b["failed"] / b["attempted"]
        bad |= fb > fa
        lines.append(
            f"{name} operations: A {a['failed']}/{a['attempted']} failed, "
            f"B {b['failed']}/{b['attempted']} failed"
            f"{'  HIGHER FAILED SHARE' if fb > fa else ''}"
        )
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    lines, bad = compare(_load(argv[0]), _load(argv[1]))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
