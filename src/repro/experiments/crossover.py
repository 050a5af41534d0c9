"""``bench-crossover``: the paper's crossover, measured on the runtime.

WeiPipe sends ``O(H^2)`` weight bytes per turn where 1F1B sends
``O(G*S*H)`` activation bytes (PAPER.md §1), so on a slow wire it loses
at small ``G*S`` and wins at large ``G*S``.  This experiment runs
``weipipe-interleave``, ``1f1b`` and ``fsdp`` on the process backend at
``P = 2`` over a priced wire — ``Topology.flat(P, link)`` under
``ChaosPolicy.quiet()``, which charges ``latency + nbytes/bandwidth`` per
message on each directed link's clock — at three microbatch sizes and on
two link classes.  Three more comparisons are cells of the same table:
early vs late posting (``overlap=``), the flat vs the hierarchical ring
on a ``2x2`` grid with a fast intra and a slow inter link, and the thread
vs the process backend.

Each cell runs its sides in alternation ``reps`` times; a pair is one
repetition, and a ratio is the first side's tokens/s over another's in
the same pair.  Every side carries its byte ledger (read from the wire's
metrics registry) and the DES prediction on the same links:
``sim.predict_run``, the one wall model ``obs.reconcile`` also prices
traced runs with, its GPU fitted to a layer forward timed at the cell's
shape.

The sweep was chosen from the byte ledger, not the closed form: on
:data:`SHAPE` a two-iteration WeiPipe call moves 5.78 MB whatever ``G``
and 1F1B 0.52 MB per unit of ``G``, so :data:`POINTS` put 1F1B's bytes
at 0.36x, 1.09x and 3.08x WeiPipe's.  At the middle point the slow link
carries one iteration's ring traffic per direction (1.45 MB) in 0.24 s,
about one iteration's compute (0.22 s on two cores).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import ceil
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.random import default_rng

from ..core.api import ZOO, train
from ..core.weipipe import train_weipipe
from ..nn import ModelConfig
from ..nn.layer import init_layer_weights, layer_fwd
from ..obs import trace_metadata
from ..parallel.common import TrainSpec
from ..runtime import ChaosPolicy, Fabric, LinkSpec, ProcessTransport, Topology
from ..sim import predict_run

__all__ = ["SCHEMA", "SHAPE", "POINTS", "LINKS", "run_crossover", "format_report"]

SCHEMA = "repro.bench_crossover/v1"

#: the swept model, fp32 (``ModelConfig`` / ``TrainSpec`` fields).
SHAPE = dict(hidden=32, n_layers=2, n_heads=2, seq_len=256, vocab=64,
             n_microbatches=4, iters=2)
#: ``--quick``: toy sizes for the structural checks.
QUICK_SHAPE = dict(hidden=8, n_layers=2, n_heads=2, seq_len=8, vocab=16,
                   n_microbatches=4, iters=2)
#: microbatch sizes ``G``: 1F1B's wire bytes 0.36x, 1.09x and 3.08x WeiPipe's.
POINTS = (4, 12, 34)
QUICK_POINTS = (1, 2, 4)
#: the two link classes: a slow one (wire ~ compute at the middle point)
#: and one fast enough that compute dominates everywhere.
LINKS = {
    "slow": LinkSpec("slow", bandwidth=6e6, latency=5e-5),
    "fast": LinkSpec("fast", bandwidth=1e9, latency=5e-6),
}
WORLD = 2
SWEEP = ("weipipe-interleave", "1f1b", "fsdp")
#: a verdict holds when the first side wins (or loses) this share of pairs.
VERDICT_SHARE = 0.9


@dataclass(frozen=True)
class Side:
    """One side of a comparison: a strategy on a wire."""

    label: str
    strategy: str
    spec: TrainSpec
    topology: Topology
    backend: str = "process"
    overlap: bool = True

    @property
    def world(self) -> int:
        return self.topology.world_size

    def fabric(self, tracer=None):
        policy = ChaosPolicy.quiet()
        if self.backend == "thread":
            return Fabric(self.world, policy=policy, topology=self.topology,
                          tracer=tracer)
        return ProcessTransport(policy=policy, topology=self.topology,
                                tracer=tracer)

    def train(self, fabric):
        if self.overlap:
            return train(self.spec, self.strategy, self.world, fabric=fabric)
        return train_weipipe(self.spec, self.world, mode=ZOO[self.strategy].schedule,
                             fabric=fabric, overlap=False)


@dataclass(frozen=True)
class Cell:
    """Sides raced in alternation.  ``expect`` is the timed verdict on
    ``sides[0]`` against ``sides[1]`` (``"slower"`` / ``"faster"``);
    ``checks`` are the structural invariants the cell must satisfy."""

    name: str
    sides: Tuple[Side, ...]
    expect: Optional[str] = None
    checks: Tuple[str, ...] = ()


def cells(quick: bool = False) -> List[Cell]:
    """The table: the sweep, then the overlap, topology and backend cells."""
    shape = QUICK_SHAPE if quick else SHAPE
    points = QUICK_POINTS if quick else POINTS

    def spec(g: int, **kw) -> TrainSpec:
        cfg = {k: v for k, v in shape.items() if k not in ("n_microbatches", "iters")}
        return TrainSpec(
            cfg=ModelConfig(**{**cfg, **kw}, dtype=np.float32), microbatch_size=g,
            n_microbatches=shape["n_microbatches"], iters=shape["iters"],
        )

    out = []
    for name, link in LINKS.items():
        flat = Topology.flat(WORLD, link)
        for i, g in enumerate(points):
            expect = None
            if name == "slow" and i != 1:
                expect = "slower" if i == 0 else "faster"
            out.append(Cell(
                f"G={g} {name}",
                tuple(Side(s, s, spec(g), flat) for s in SWEEP),
                expect=expect,
            ))
    g = points[1]
    slow = Topology.flat(WORLD, LINKS["slow"])
    fast = Topology.flat(WORLD, LINKS["fast"])
    ring = "weipipe-interleave"
    grid = Topology.grid(4, "2x2", intra=LINKS["fast"], inter=LINKS["slow"])
    out += [
        Cell("posting slow", (
            Side("early", ring, spec(g), slow),
            Side("late", ring, spec(g), slow, overlap=False),
        ), checks=("losses", "bytes")),
        Cell("ring 2x2", (
            Side("hier", "weipipe-hier", spec(g, n_layers=4), grid),
            Side("flat", ring, spec(g, n_layers=4), grid),
        ), checks=("losses", "cross-group")),
        Cell("backend fast", (
            Side("process", ring, spec(g), fast),
            Side("thread", ring, spec(g), fast, backend="thread"),
        ), checks=("losses", "bytes")),
    ]
    return out


def _forward_s(spec: TrainSpec) -> float:
    """Median wall of one layer forward at ``spec``'s ``(G, S, H)``."""
    cfg = spec.cfg
    rng = default_rng(0)
    w = init_layer_weights(cfg.hidden, cfg.ffn, rng, cfg.dtype)
    x = rng.standard_normal(
        (spec.microbatch_size, cfg.seq_len, cfg.hidden)).astype(cfg.dtype)
    cos, sin = spec.rope()
    walls = []
    for _ in range(5):
        t0 = perf_counter()
        layer_fwd(w, x, cfg.n_heads, cos, sin, cfg.flash_attention, cfg.flash_block)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def _predict(side: Side, t_fwd_layer: float) -> Dict:
    """The DES of ``side`` on its priced wire (``sim.predict_run``)."""
    _, _, rep = predict_run(trace_metadata(
        side.strategy, side.world, side.spec, topology=side.topology,
        priced=True, overlap=side.overlap,
    ), t_fwd_layer)
    return {"t_fwd_layer_s": t_fwd_layer, "iteration_s": rep.makespan,
            "bytes": rep.comm_bytes_total}


def _measure(side: Side, record: Dict) -> None:
    """One timed call of ``side``, appended to its ``record`` (the byte
    ledger, losses and pool count are the first call's)."""
    fabric = side.fabric()
    t0 = perf_counter()
    result = side.train(fabric)
    wall = perf_counter() - t0
    spec = side.spec
    tokens = (spec.iters * spec.n_microbatches * spec.microbatch_size
              * spec.cfg.seq_len)
    record["wall_s"].append(wall)
    record["tokens_per_s"].append(tokens / wall)
    m = fabric.metrics
    ledger = {
        "bytes": m.total("fabric_bytes_total"),
        "messages": m.total("fabric_messages_total"),
        "link_bytes": m.total("fabric_link_bytes_total", label="link"),
        "losses": [float(x) for x in result.losses],
    }
    allocs = result.extra.get("pool_allocs_by_iter")
    if allocs and side.backend == "process":
        ledger["steady_allocs_per_iter"] = allocs[-1] - allocs[-2]
    record.setdefault("ledger", ledger)


def _checks(cell: Cell, records: List[Dict]) -> Dict[str, bool]:
    ledgers = [r["ledger"] for r in records]
    out = {}
    for name in cell.checks:
        if name == "losses":
            out[name] = all(l["losses"] == ledgers[0]["losses"] for l in ledgers)
        elif name == "bytes":
            out[name] = len({(l["bytes"], l["messages"]) for l in ledgers}) == 1
        elif name == "cross-group":
            hier, flat = ledgers[0]["link_bytes"], ledgers[1]["link_bytes"]
            out[name] = (hier.get("inter", 0) < flat.get("inter", 0)
                         and hier.get("intra") == flat.get("intra"))
    out["pool-steady"] = all(
        l.get("steady_allocs_per_iter", 0) == 0 for l in ledgers
    )
    return out


def run_crossover(
    reps: int = 10,
    quick: bool = False,
    tracer=None,
    metrics=None,
) -> Dict:
    """Race every cell ``reps`` times in alternation; the JSON report.

    ``report["ok"]`` is false when a structural check fails, or when a
    timed verdict holds in fewer than :data:`VERDICT_SHARE` of the pairs
    (``quick`` runs no verdict).  ``tracer`` / ``metrics`` record
    one extra, untimed run of the hierarchical ring after the timed ones.
    """
    report: Dict = {
        "schema": SCHEMA, "quick": quick, "reps": reps, "world": WORLD,
        "shape": QUICK_SHAPE if quick else SHAPE,
        "links": {k: v.as_dict() for k, v in LINKS.items()},
        "cells": [],
    }
    ok = True
    table = cells(quick)
    for cell in table:
        records = [
            {"label": s.label, "strategy": s.strategy, "backend": s.backend,
             "overlap": s.overlap, "wall_s": [], "tokens_per_s": []}
            for s in cell.sides
        ]
        t_fwd = _forward_s(cell.sides[0].spec)
        for _ in range(reps):
            for side, record in zip(cell.sides, records):
                _measure(side, record)
        for side, record in zip(cell.sides, records):
            record["sim"] = _predict(side, t_fwd)
            iteration = statistics.median(record["wall_s"]) / side.spec.iters
            record["sim"]["over_measured"] = record["sim"]["iteration_s"] / iteration
        first = records[0]["tokens_per_s"]
        ratios = {
            f"{records[0]['label']}/{r['label']}":
                [a / b for a, b in zip(first, r["tokens_per_s"])]
            for r in records[1:]
        }
        out = {"name": cell.name, "sides": records, "ratios": ratios,
               "checks": _checks(cell, records)}
        ok &= all(out["checks"].values())
        if cell.expect is not None and not quick:
            pairs = next(iter(ratios.values()))
            wins = sum(r > 1.0 for r in pairs)
            held = wins if cell.expect == "faster" else len(pairs) - wins
            out["verdict"] = {
                "expect": f"{records[0]['label']} {cell.expect} than "
                          f"{records[1]['label']}",
                "held": held, "of": len(pairs),
                "pass": held >= ceil(VERDICT_SHARE * len(pairs)),
            }
            ok &= out["verdict"]["pass"]
        report["cells"].append(out)
    report["ok"] = bool(ok)

    if tracer is not None or metrics is not None:
        hier = next(c for c in table if c.name == "ring 2x2").sides[0]
        if tracer is not None:
            tracer.metadata.update(trace_metadata(
                hier.strategy, hier.world, hier.spec, topology=hier.topology,
                priced=True, backend=hier.backend,
            ))
        fabric = hier.fabric(tracer)
        hier.train(fabric)
        if metrics is not None:
            metrics.merge(fabric.metrics.as_dict())
    return report


def format_report(report: Dict) -> str:
    """One row per side: median tokens/s, its ratio to the cell's first
    side (median and pairs won), bytes, and the DES over measured."""
    lines = [
        f"{'cell':<14} {'side':<20} {'tokens/s':>9} {'ratio':>6} {'won':>6} "
        f"{'MB':>7} {'sim/meas':>8}",
    ]
    for cell in report["cells"]:
        for i, side in enumerate(cell["sides"]):
            ratio, won = "", ""
            if i:
                pairs = cell["ratios"][f"{cell['sides'][0]['label']}/{side['label']}"]
                ratio = f"{statistics.median(pairs):.2f}"
                won = f"{sum(r > 1.0 for r in pairs)}/{len(pairs)}"
            lines.append(
                f"{cell['name'] if i == 0 else '':<14} {side['label']:<20} "
                f"{statistics.median(side['tokens_per_s']):>9,.0f} "
                f"{ratio:>6} {won:>6} "
                f"{side['ledger']['bytes'] / 1e6:>7.2f} "
                f"{side['sim']['over_measured']:>8.2f}"
            )
        failed = [k for k, v in cell["checks"].items() if not v]
        verdict = cell.get("verdict")
        if verdict is not None:
            lines.append(f"{'':<14} verdict: {verdict['expect']} in "
                         f"{verdict['held']}/{verdict['of']} pairs: "
                         f"{'PASS' if verdict['pass'] else 'FAIL'}")
        if failed:
            lines.append(f"{'':<14} FAILED checks: {', '.join(failed)}")
    lines.append(f"ok: {report['ok']}")
    return "\n".join(lines)
