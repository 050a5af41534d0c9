"""Predict-then-validate: run the plan's top pick for real and gate it.

The planner's ranking is simulated; this module closes the loop by
executing the winning candidate on the functional runtime with tracing
on and gating predicted-vs-measured wall clock through
``repro.obs.analyze.reconcile``'s tolerances (``WALL_TOL`` /
``RATIO_TOL``, DESIGN.md §11).

The functional runtime is NumPy on CPU threads, so the validation run
keeps the pick's *shape* — strategy, schedule, ring/pipeline structure,
and (clamped) parallel degree — at the scaled-down dims of the spec's
``validation`` section.  The prediction is the planner's own simulator
(``sim.runner.predict_run``): the pick's DES schedule, re-calibrated on
the run's own forward spans, on the unpriced wire's free links.  A pass
means "the schedule the planner priced is the schedule that actually
executed, at the speed its forward spans imply", not "a laptop
reproduces A800 seconds".

Every simulated strategy's trace carries the ``F`` / ``B`` /
``iteration`` spans ``reconcile()`` reads, so every pick is gated the
same way — except on a one-worker validation run (``world_cap=1``),
which the ring's DES cannot price (it has no self-link): that run takes
a run-only smoke gate, finite losses.  The verdict records which gate
applied.
"""

from __future__ import annotations

import math
from typing import Dict

from ..core.api import ZOO
from ..nn.model import default_ffn
from .search import Evaluated

__all__ = ["validate_candidate"]


def _validation_world(ev: Evaluated, cap: int) -> int:
    """The run's worker count: the pick's inner degree (its replicas are
    bit-equal copies), clamped to the cap; pure DP validates its
    replica fan-out instead."""
    degree = ev.candidate.degree if ev.candidate.degree > 1 else ev.candidate.dp
    return max(1, min(degree, cap))


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def validate_candidate(ev: Evaluated, spec) -> Dict:
    """Run ``ev`` live at the spec's validation dims; return the verdict.

    The verdict dict lands in the report's ``validation`` section:
    ``ran``/``strategy``/``world``/``dims``/``gate``/``passed`` plus the
    full ``reconcile`` output when the reconcile gate applied.
    """
    from .. import FP64, ModelConfig, TrainSpec, train
    from ..obs import (
        analyze_trace, reconcile, trace_metadata, validate_chrome_trace,
    )

    v = spec.validation
    functional = ev.candidate.strategy  # the planner speaks train()'s names
    strategy = ZOO[functional]
    world = _validation_world(ev, v.world_cap)

    # keep the runtime's divisibility contracts at toy scale: layers and
    # microbatch count tile the (clamped) world, and so do the hidden and
    # ffn widths of a head-sharding strategy and a sequence-sharding one's
    # seq.
    n_layers = _round_up(max(v.n_layers, world), world)
    n_mb = _round_up(max(v.n_microbatches, world), world)
    hidden = _round_up(v.hidden, world) if "heads" in strategy.divides else v.hidden
    seq = _round_up(v.seq_len, world) if "seq" in strategy.divides else v.seq_len
    ffn = _round_up(default_ffn(hidden), world) if "ffn" in strategy.divides else None

    cfg = ModelConfig(
        hidden=hidden, n_layers=n_layers, n_heads=v.n_heads,
        seq_len=seq, vocab=v.vocab, ffn=ffn,
    )
    train_spec = TrainSpec(
        cfg=cfg, n_microbatches=n_mb, microbatch_size=v.microbatch_size,
        iters=v.iters, seed=v.seed, precision=FP64,
    )
    meta = trace_metadata(functional, world, train_spec)
    verdict: Dict = {
        "ran": True,
        "strategy": functional,
        "planned": ev.candidate.as_dict(),
        "world": world,
        "dims": meta["dims"],
        "iters": v.iters,
    }

    gate_reconcile = world > 1
    fabric, tracer = _build_fabric(strategy.hier, world, gate_reconcile, meta)
    result = train(train_spec, functional, world, fabric=fabric)
    losses_finite = all(math.isfinite(l) for l in result.losses)
    verdict["losses"] = [float(l) for l in result.losses]

    if not gate_reconcile:
        verdict["gate"] = "smoke"
        verdict["passed"] = bool(losses_finite and result.losses)
        verdict["reconcile"] = None
        return verdict

    doc = tracer.chrome_trace()
    problems = validate_chrome_trace(doc)
    analysis = analyze_trace(doc)
    rec = reconcile(doc, analysis)
    wall_ok = rec["iteration_wall"]["within_tolerance"]
    bf = rec.get("b_over_f")
    bf_ok = bf is None or bf["within_tolerance"]
    verdict["gate"] = "reconcile"
    verdict["trace_schema_ok"] = not problems
    verdict["measured"] = {
        "bubble_ratio_mean": analysis["summary"]["bubble_ratio_mean"],
        "wall_s_max": analysis["summary"]["wall_s_max"],
    }
    verdict["reconcile"] = rec
    verdict["passed"] = bool(
        losses_finite and not problems and wall_ok and bf_ok
    )
    return verdict


def _build_fabric(hier: bool, world: int, traced: bool, metadata: Dict):
    """A traced fabric for the validation run (topology-carrying for the
    hierarchical ring so its gateway path actually executes)."""
    if not traced:
        return None, None
    from ..obs import Tracer
    from ..runtime import Fabric

    topo = None
    if hier:
        from ..runtime import Topology, default_groups

        topo = Topology.grid(world, default_groups(world))
        metadata = dict(metadata)
        metadata["topology"] = topo.as_dict()
    tracer = Tracer(metadata=metadata)
    return Fabric(world, tracer=tracer, topology=topo), tracer
