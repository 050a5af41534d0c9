#!/usr/bin/env python3
"""The repo's benchmark: one command, four workloads, every metric by name.

    python benchmarks/suite/run.py [--workload NAME ...] [--seed N]
                                   [--seconds S] [--trace {0,1}]
                                   [--out DIR] [--quick]

Each workload runs in a fresh child interpreter (this file again, with
``--child``).  Every metric is printed as ``workload metric value unit``;
the result (``repro.benchsuite/v1``, see ``schema.py``) goes to
``<out>/result.json``, the benchmark's own spans to ``<out>/spans.jsonl``
and one summary line is appended to ``history.jsonl``.  ``--trace 0``
measures only the end-to-end metrics, ``--trace 1`` only the per-layer
ones; without it both are measured.  With one workload and an explicit
``--trace`` the last line of standard output is that workload's summary
as one JSON object (what a driver reads).
"""

from __future__ import annotations

import os

# before numpy loads: unpinned, each of the two ranks spawns two BLAS
# threads on two cores and the numbers measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import datetime
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import schema  # noqa: E402  (after the environment is pinned)
import spans as spans_mod  # noqa: E402

#: a child that has not answered by then is killed and counted failed;
#: the driver allows a run 180 s.
CHILD_DEADLINE_S = 150.0
QUICK_SECONDS = 1.0
DEFAULT_SECONDS = 20.0


def _parse(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None, metavar="NAME",
                   help="run only this workload (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=7,
                   help="TrainSpec.seed and data_seed of every call")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"how long the timed calls run (default {DEFAULT_SECONDS:.0f})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics only; 1: per-layer metrics only")
    p.add_argument("--out", default=str(HERE / "out"), metavar="DIR")
    p.add_argument("--quick", action="store_true",
                   help="toy shapes, every probe once, schema check (< 30 s)")
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this interpreter; result as the last line."""
    from measure import run_workload
    from workloads import TOY_SHAPES, WORKLOADS

    wl = WORKLOADS[args.child]
    if args.quick:
        wl = dataclasses.replace(wl, shape=TOY_SHAPES[wl.shape])
    result = run_workload(
        wl, args.seed, args.seconds,
        per_layer=args.trace != 0, end_to_end=args.trace != 1, once=args.quick,
    )
    print(json.dumps(result))
    return 0


def _stop_session(proc: subprocess.Popen) -> None:
    """End the child's whole session: a child that was killed cannot reap
    its ranks.  Asked first, so that a rank unlinks its segment on the way
    out; a session that has already ended raises on the first signal."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            pass
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run_child(name: str, args: argparse.Namespace, tmp: Path) -> Dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    # tracer spills and trace dumps go through tempfile: keep them in <out>.
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_DEADLINE_S)
        reason = f"child exited with code {proc.returncode} and no result"
    except subprocess.TimeoutExpired:
        stdout, reason = "", f"child exceeded {CHILD_DEADLINE_S:.0f} s and was killed"
    finally:
        _stop_session(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {
        "name": name, "strategy": None, "backend": None, "world": None,
        "shape": None, "tokens_per_call": None,
        "attempted": 1, "failed": 1, "correct": False,
        "failures": [{"call": 0, "reason": reason}],
        "calls": None, "end_to_end": {}, "per_layer": {}, "spans": [],
    }


def _fill(result: Dict, catalogue: Dict, phases) -> None:
    """Turn the child's plain numbers into result-file entries: every
    catalogue metric of the measured phases gets one (0 when the workload
    could not measure it: no wire and no trace on serial), stamped with
    the catalogue's unit and, end to end, its direction and bound, so a
    result file is self-describing.  A name the catalogue does not know
    is kept, unit-less, for the validator to report."""
    for group in ("end_to_end", "per_layer"):
        got = result[group] if group in phases else {}
        out = {}
        for m in catalogue[group] if group in phases else ():
            if group == "end_to_end":
                stat = got.pop(m["name"], {"value": 0.0, "n": 0, "min": 0.0, "max": 0.0})
                out[m["name"]] = dict(stat, unit=m["unit"], better=m["better"],
                                      bound=m["bound"])
            else:
                out[m["name"]] = {"value": got.pop(m["name"], 0.0), "unit": m["unit"]}
        out.update({name: {"value": v, "unit": None} for name, v in got.items()})
        result[group] = out


def _history_line(doc: Dict) -> Dict:
    prov = doc["provenance"]
    return {
        "created": doc["created"], "mode": doc["mode"], "seed": doc["seed"],
        "seconds": doc["seconds"], "git_sha": prov["git_sha"],
        "nproc": prov["nproc"], "cpu_model": prov["cpu_model"],
        "calib.matmul_gflops": prov["calib.matmul_gflops"],
        "workloads": {
            w["name"]: {
                "attempted": w["attempted"], "failed": w["failed"],
                **{k: v["value"] for k, v in w["end_to_end"].items()},
            }
            for w in doc["workloads"]
        },
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    # die through the finally blocks, so a child's ranks are not orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.child is not None:
        return _child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    catalogue = schema.load_catalogue(ROOT)
    known = [w["name"] for w in catalogue["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            print(f"run.py: unknown workload {name!r}; choose from {known}",
                  file=sys.stderr)
            return 2
    phases = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",),
              1: ("per_layer",)}[args.trace]
    driver = args.trace is not None and len(names) == 1

    import provenance  # imports numpy, so after the pinning above

    out = Path(args.out)
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": schema.SCHEMA,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "mode": "quick" if args.quick else ("driver" if driver else "full"),
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": provenance.collect(ROOT, args.seed),
        "workloads": [],
    }
    all_spans: List[Dict] = []
    try:
        for name in names:
            result = _run_child(name, args, tmp)
            all_spans += result.pop("spans")
            _fill(result, catalogue, phases)
            doc["workloads"].append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"- calib.matmul_gflops {doc['provenance']['calib.matmul_gflops']:.6g} GFLOP/s")
    for w in doc["workloads"]:
        for group in phases:
            for name, m in w[group].items():
                spread = (f"  (n={m['n']} min={m['min']:.6g} max={m['max']:.6g})"
                          if group == "end_to_end" else "")
                print(f"{w['name']} {name} {m['value']:.6g} {m['unit']}{spread}")
        print(f"{w['name']} operations {w['attempted']} attempted, "
              f"{w['failed']} failed")
        for f in w["failures"]:
            print(f"{w['name']} FAILED call {f['call']}: {f['reason']}")

    problems = schema.validate(doc, catalogue, phases)
    for p in problems:
        print(f"schema: {p}", file=sys.stderr)
    with open(out / "result.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    spans_mod.write_jsonl(str(out / "spans.jsonl"), all_spans)
    with open(HERE / "history.jsonl", "a") as f:
        f.write(json.dumps(_history_line(doc), sort_keys=True) + "\n")
    print(f"[{out / 'result.json'}: "
          f"{'valid' if not problems else 'INVALID'} {schema.SCHEMA}]")

    all_correct = all(w["correct"] for w in doc["workloads"])
    if driver:
        w = doc["workloads"][0]
        print(json.dumps({
            "correct": w["correct"], "attempted": w["attempted"],
            "failed": w["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in w[phases[0]].items()},
        }))
        return 1 if problems else 0
    return 0 if all_correct and not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
