"""WeiPipe weight-ring schedules for the simulator.

Prices the *same* turn table the functional engine executes
(:data:`repro.core.schedule.RING_SCHEDULES`, a turn's ops from
:func:`~repro.core.schedule.turn_ops`) — the timing model and the
numerics are two views of one protocol, for every row of the table.

Per turn a worker receives three payloads from its predecessor (forward
weight slot, backward weight slot, gradient slot: ``2 W + 1 D``, i.e.
``36 H^2`` per Llama layer) and computes its scheduled ops.  The
dependency structure exists once, in :func:`_ring_graph`:

* **weight flows prefetch**: slot arrivals depend only on the previous
  hop's arrival (weights are read-only — NCCL can forward them as soon
  as they land, the paper's ``batch_isend_irecv`` prefetch) plus a
  double-buffer constraint (a worker can hold the incoming slot for turn
  ``t+1`` while using turn ``t``'s, but no deeper);
* **the gradient flow cannot prefetch**: ``D`` leaving worker ``p`` at
  turn ``t`` contains ``p``'s turn-``t`` weight-gradient contribution,
  so its hop depends on that compute — this is the flow that paces the
  ring when communication is slow;
* a worker's turn compute depends on its previous turn and on the
  arrivals it consumes.

At iteration end the owner applies the update (a small compute task) and
re-injects weights (one extra hop), matching the functional engine's
update pass.

``hier=True`` is the runtime's boundary rule (DESIGN §12) on the hops
that leave a node: a weight slot crosses in full while the tag's turn is
within the first revolution (``turn <= P``) and as a reference after.

The paper's *conceptual* zero-bubble diagrams (§4.3, Figs. 3-4: "their
implementation requires intricate and fine-grained control, which we
leave for future exploration") are :data:`RING_FIGURES` rows rendered by
:func:`build_ring_figure` on the same ring graph — pictures, not
strategies: nothing executes them and the planner does not search them.
The schedule that runs with a split backward is the ``zero-bubble`` row.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from ...core.schedule import ring_schedule, ring_splits_backward, turn_ops
from ...runtime.topology import WREF_NBYTES
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, comm_resource, validate_divisible

__all__ = ["build_weipipe", "build_ring_figure", "RING_FIGURES"]

#: what one (worker, turn) costs: seconds of compute, whether it adds a
#: weight gradient into the circulating D, and the task's metadata.
_TurnFn = Callable[[int, int], Tuple[float, bool, dict]]


def _ring_graph(
    cluster: Cluster,
    exec_cfg: ExecConfig,
    total: int,
    turn: _TurnFn,
    w_bytes: Callable[[int, int, int], float],
    d_bytes: float,
) -> TaskGraph:
    """Compute and arrival tasks of ``total`` ring turns.

    ``w_bytes(left, p, t)`` is the weight payload of the hop into ``p``
    consumed at turn ``t``.
    """
    world = cluster.world_size
    g = TaskGraph()
    turns = [[turn(p, t) for t in range(total)] for p in range(world)]

    # compute tasks: one per (worker, turn), zero-duration for idle turns
    # so the per-worker chain stays uniform.
    for p in range(world):
        for t in range(total):
            deps = []
            if t > 0:
                deps.append(("T", p, t - 1))
                deps.extend((("AW", p, t), ("AD", p, t)))
            dur, _, meta = turns[p][t]
            g.add(
                ("T", p, t), ("compute", p), dur,
                deps=tuple(deps), kind="turn", worker=p, turn=t, **meta,
            )

    # arrival tasks: hop from p-1 into p, consumed at turn t.
    for p in range(world):
        left = (p - 1) % world
        res = comm_resource(cluster, left, p, exec_cfg.overlap)
        link = cluster.link(left, p)
        for t in range(1, total):
            # both weight flows aggregated into one transfer (they travel
            # together).  The sender posts this isend at the start of its
            # turn t-1 (i.e. once its turn t-2 completed) and the payload
            # must have arrived there first — this is the
            # batch_isend_irecv prefetch pattern: one turn of lookahead.
            w_deps = []
            if t > 1:
                w_deps.append(("AW", left, t - 1))  # previous hop
            if t > 2:
                w_deps.append(("T", left, t - 2))  # sender's turn loop
            nbytes = w_bytes(left, p, t)
            g.add(
                ("AW", p, t), res, link.time(nbytes), deps=tuple(w_deps),
                kind="comm", nbytes=nbytes, src=left, dst=p,
            )
            # the D flow leaves p-1 only after p-1's turn t-1 compute
            # (its weight-gradient contribution is in the buffer).
            d_deps = [("T", left, t - 1)] if turns[left][t - 1][1] else []
            if t > 1:
                d_deps.append(("AD", left, t - 1))
            g.add(
                ("AD", p, t), res, link.time(d_bytes), deps=tuple(d_deps),
                kind="comm", nbytes=d_bytes, src=left, dst=p,
            )
    return g


def _ring_setup(dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig, split: bool):
    world = cluster.world_size
    validate_divisible(dims.n_layers, world, "layers per slot")
    validate_divisible(dims.n_microbatches, world, "microbatches per round")
    if split and exec_cfg.recompute:
        raise ValueError(
            "a ring that splits the backward runs without recomputation"
        )
    return dims.n_layers // world, CostModel(dims, cluster.gpu, exec_cfg)


def build_weipipe(
    mode: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
    hier: bool = False,
    name: str = None,
) -> BuiltSchedule:
    """Build the task graph of ring mode ``mode`` (a
    :data:`~repro.core.schedule.RING_SCHEDULES` row); ``name`` is the
    strategy it is reported (and charged memory) as."""
    world = cluster.world_size
    split = ring_splits_backward(mode)
    lps, cost = _ring_setup(dims, cluster, exec_cfg, split)
    total, task_fn = ring_schedule(mode, world, dims.n_microbatches)

    op_time = cost.op_times(lps, split)
    wgrad_op = "W" if split else "B"
    w_bytes = cost.weight_chunk_bytes(lps)
    d_bytes = cost.wgrad_chunk_bytes(lps)

    def turn(p: int, t: int):
        task = task_fn(p, t)
        kinds = [kind for kind, _ in turn_ops(task)]
        meta = {"fwd": task.fwd, "bwd": task.bwd}
        if split:
            meta["wpass"] = task.wpass
        return sum(op_time[k] for k in kinds), wgrad_op in kinds, meta

    def hop_w_bytes(left: int, p: int, t: int) -> float:
        if hier and t > world and cluster.node_of(left) != cluster.node_of(p):
            return 2 * WREF_NBYTES
        return 2 * w_bytes

    g = _ring_graph(cluster, exec_cfg, total, turn, hop_w_bytes, d_bytes)

    # update pass: owner updates its slot after its last turn and the
    # final D arrival, then re-injects the fwd-flow copy (one extra hop).
    t_update = 0.05 * lps * cost.t_fwd_layer()  # elementwise optimizer math
    for p in range(world):
        g.add(
            ("U", p), ("compute", p), t_update,
            deps=(("T", p, total - 1),), kind="update", worker=p,
        )
        target = (1 - p) % world
        if target != p:
            res = comm_resource(cluster, p, target, exec_cfg.overlap)
            g.add(
                ("INJ", p), res, cluster.link(p, target).time(w_bytes),
                deps=(("U", p),), kind="comm", nbytes=w_bytes, src=p, dst=target,
            )

    return BuiltSchedule(
        name=name or f"weipipe-{mode}", graph=g, dims=dims, cluster=cluster,
        cost=cost, exec_cfg=exec_cfg, compute_workers=list(range(world)),
    )


#: Figures 3 and 4 as the text states them, per ring of ``P``: (turns
#: per round, unit ops per turn, W chunks per turn beside the one D,
#: drain turns).  WZB1: every turn does *two* unit ops (no recompute:
#: B ~= W ~= F) while three chunks move, so a microbatch's ``3P`` ops
#: take ``1.5 P`` turns and the drain is about half of interleave's.
#: WZB2: *one* op per turn while two chunks move — double the
#: communication per unit of compute — and the update overlaps the next
#: iteration's fill ("seamless handover ... almost zero bubble").
RING_FIGURES = {
    "wzb1": (lambda P: math.ceil(1.5 * P), 2, 2, lambda P: max(1, (P - 1) // 2)),
    "wzb2": (lambda P: 3 * P, 1, 1, lambda P: 0),
}


def build_ring_figure(
    variant: str,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Render a :data:`RING_FIGURES` row: uniform turns, every worker
    busy from the turn slot 0 reaches it (``rank`` hops) for ``R`` rounds."""
    try:
        turns_per_round, ops, w_chunks, drain = RING_FIGURES[variant]
    except KeyError:
        raise ValueError(
            f"unknown ring figure {variant!r}; choose from {sorted(RING_FIGURES)}"
        ) from None
    world = cluster.world_size
    lps, cost = _ring_setup(dims, cluster, exec_cfg, split=True)
    steady = dims.n_microbatches // world * turns_per_round(world)
    total = steady + (world - 1) + drain(world)  # fill ramp + drain tail
    turn_time = ops * lps * cost.t_fwd_layer()
    w_bytes = w_chunks * cost.weight_chunk_bytes(lps)

    def turn(p: int, t: int):
        busy = p <= t < p + steady
        return (turn_time if busy else 0.0), busy, {"busy": busy}

    g = _ring_graph(
        cluster, exec_cfg, total, turn,
        lambda left, p, t: w_bytes, cost.wgrad_chunk_bytes(lps),
    )
    return BuiltSchedule(
        name=variant, graph=g, dims=dims, cluster=cluster,
        cost=cost, exec_cfg=exec_cfg, compute_workers=list(range(world)),
    )
