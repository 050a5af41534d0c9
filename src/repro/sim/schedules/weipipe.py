"""WeiPipe weight-ring schedules for the simulator.

Prices the *same* turn table the functional engine executes
(:data:`repro.core.schedule.RING_SCHEDULES`, a turn's ops from
:func:`~repro.core.schedule.turn_ops`) — the timing model and the
numerics are two views of one protocol, for every row of the table.

Per turn a worker receives three payloads from its predecessor (forward
weight slot, backward weight slot, gradient slot: ``2 W + 1 D``, i.e.
``36 H^2`` per Llama layer) and computes its scheduled ops.  Each hop's
bytes are the ring's turn rows (``RingLoop.POSTS``, DESIGN §23), sized
on the slot its flow holds there — the embedding rides slot 0, the
final norm and head the last.  The dependency structure exists once, in
:func:`_ring_graph`:

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

At iteration end one homing hop brings every slot, and the last turn's
gradients in ``D``, back to its owner; the losses are all-gathered, and
the owner then applies the update (a small compute task) and re-injects
weights (one extra hop), matching the functional engine's ``t == total``
turn, loss gather and update pass.

Below the regime boundary (``repro.nn.model.chunk_factored``) a chunk's
gradient rides no ``D``: the ``D`` row sizes a slot's dense chunks
alone, and a backward on a slot another worker owns posts the
``factors`` row to that owner, which forms the gradient (``N`` W passes
of the slot, one compute task) before its update.  The turns' ``B`` then
cost the input half alone (:meth:`~repro.sim.costmodel.CostModel.op_times`).

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
from dataclasses import replace
from typing import Callable, Tuple

from ...core.schedule import fwd_home, ring_schedule, ring_splits_backward, slot_owner, turn_ops
from ...core.weipipe import HELD, RingLoop
from ...parallel.common import Sizes, slot_chunk_ids
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, comm_resource, validate_divisible
from .collective import collective_task

__all__ = ["build_weipipe", "build_ring_figure", "RING_FIGURES"]

#: what one (worker, turn) costs: seconds of compute, whether it adds a
#: weight gradient into the circulating D, and the task's metadata.
_TurnFn = Callable[[int, int], Tuple[float, bool, dict]]

#: the ring's turn rows: F and B weight slots and the D riding with B.
_TURN_ROWS = [post for post in RingLoop.POSTS if post.when == "turn"]


def _hops(sizes: Sizes, crossed: Callable[[int, int, int], bool]):
    """``hop(left, p, t)``: the weight and the ``D`` bytes the ring's turn
    rows put on the hop into ``p`` consumed at turn ``t``, each on the slot
    its flow held at ``left`` the turn before
    (:data:`~repro.core.weipipe.HELD`); a weight slot the hop has
    ``crossed`` already is a reference."""

    def hop(left: int, p: int, t: int) -> Tuple[int, int]:
        nbytes = {"weight": 0, "wgrad": 0}
        for post in _TURN_ROWS:
            slot = HELD[post.kind](left, t - 1, sizes.world)
            nbytes[post.width] += sizes.nbytes(post, slot, crossed(left, p, t))
        return nbytes["weight"], nbytes["wgrad"]

    return hop


def _ring_graph(
    cluster: Cluster,
    exec_cfg: ExecConfig,
    total: int,
    turn: _TurnFn,
    hop_bytes: Callable[[int, int, int], Tuple[int, int]],
    homing: bool = False,
) -> TaskGraph:
    """Compute and arrival tasks of ``total`` ring turns.

    ``hop_bytes(left, p, t)`` is the weight and the ``D`` payload of the
    hop into ``p`` consumed at turn ``t`` (:func:`_hops`).  ``homing`` adds the arrivals at ``t =
    total``: the hop after the last turn that brings every slot, and the
    last turn's gradients in D, back to its owner.
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
        for t in range(1, total + homing):
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
            w_bytes, d_bytes = hop_bytes(left, p, t)
            g.add(
                ("AW", p, t), res, link.time(w_bytes), deps=tuple(w_deps),
                kind="comm", nbytes=w_bytes, src=left, dst=p,
            )
            # the D flow leaves p-1 only after p-1's turn t-1 compute
            # (its weight-gradient contribution is in the buffer).
            d_deps = [("T", left, t - 1)] if turns[left][t - 1][1] else []
            if t > 1:
                d_deps.append(("AD", left, t - 1))
            g.add(
                ("AD", p, t), res, link.time(d_bytes) if d_bytes else 0.0,
                deps=tuple(d_deps), kind="comm", nbytes=d_bytes, src=left, dst=p,
            )
    return g


def _ring_setup(dims: WorkloadDims, cluster: Cluster, exec_cfg: ExecConfig):
    world = cluster.world_size
    validate_divisible(dims.n_layers, world, "layers per slot")
    validate_divisible(dims.n_microbatches, world, "microbatches per round")
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
    lps, cost = _ring_setup(dims, cluster, exec_cfg)
    total, task_fn = ring_schedule(mode, world, dims.n_microbatches)

    wgrad_op = "W" if ring_splits_backward(mode) else "B"
    sizes = cost.sizes(world)
    factored = cost.factored(RingLoop.whole)

    # each rank's turns priced op by op along its whole program, so a B
    # pays the replays the checkpoint rule counts for it there.
    turn_secs = []
    for p in range(world):
        turns = [turn_ops(task_fn(p, t)) for t in range(total)]
        secs = iter(cost.op_times([op for ops in turns for op in ops], lps, all(factored)))
        turn_secs.append([sum(next(secs) for _ in ops) for ops in turns])

    def turn(p: int, t: int):
        task = task_fn(p, t)
        kinds = [kind for kind, _ in turn_ops(task)]
        meta = {"fwd": task.fwd, "bwd": task.bwd, "wpass": task.wpass}
        return turn_secs[p][t], wgrad_op in kinds, meta

    # the runtime's boundary rule: a slot crosses a node boundary in full
    # while the tag's turn is within the first revolution, then by reference
    def crossed(left: int, p: int, t: int) -> bool:
        return hier and t > world and cluster.node_of(left) != cluster.node_of(p)

    g = _ring_graph(cluster, exec_cfg, total, turn, _hops(sizes, crossed), homing=True)

    # factor bundles: each backward on a foreign slot hops to its owner,
    # which forms the slot's factored gradients once all are in.
    (bundle,) = [post for post in RingLoop.POSTS if post.peer == "owner"]
    into = {p: [] for p in range(world)}
    for p in range(world):
        for t in range(total):
            for kind, (slot, _) in turn_ops(task_fn(p, t)):
                owner, nbytes = slot_owner(slot, world), sizes.nbytes(bundle, slot)
                if kind != wgrad_op or not nbytes:
                    continue
                if owner == p:
                    into[p].append(("T", p, t))
                    continue
                into[owner].append(g.add(
                    ("AX", p, t), comm_resource(cluster, p, owner, exec_cfg.overlap),
                    cluster.link(p, owner).time(nbytes), deps=(("T", p, t),),
                    kind="comm", nbytes=nbytes, src=p, dst=owner,
                ))
    for p in range(world):
        n = sum(factored[i] for i in slot_chunk_ids((p - 1) % world, world, dims.n_layers))
        if n:  # the W halves of every microbatch, at once
            g.add(("FORM", p), ("compute", p), n * dims.n_microbatches * cost.t_fwd_layer(),
                  deps=tuple(into[p]), kind="W", worker=p)

    # update pass: every rank's last turn and the homing hop's arrivals
    # (the runtime's ``t == total`` turn), then the end rows: the loss
    # gather, which every update waits for, and each owner's inject of its
    # updated slot at the slot's forward home (one extra hop).
    t_update = 0.05 * lps * cost.t_fwd_layer()  # elementwise optimizer math
    net = ("net",) if exec_cfg.overlap else ("compute", 0)
    ends = [post for post in RingLoop.POSTS if post.when == "end"]
    homed = tuple(dep for p in range(world)
                  for dep in (("T", p, total - 1), ("AW", p, total), ("AD", p, total)))
    syncs = tuple(collective_task(g, (post.kind,), post, sizes, cluster, net, homed)
                  for post in ends if post.what != "hop")
    for p in range(world):
        formed = (("FORM", p),) if ("FORM", p) in g.tasks else ()
        g.add(("U", p), ("compute", p), t_update, deps=syncs + formed, kind="update", worker=p)
        owned = (p - 1) % world
        target = fwd_home(owned, world)
        for post in ends:
            if post.what == "hop" and target != p:
                nbytes = sizes.nbytes(post, owned)
                g.add(
                    ("INJ", p), comm_resource(cluster, p, target, exec_cfg.overlap),
                    cluster.link(p, target).time(nbytes), deps=(("U", p),),
                    kind="comm", nbytes=nbytes, src=p, dst=target,
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
    lps, cost = _ring_setup(dims, cluster, exec_cfg)
    steady = dims.n_microbatches // world * turns_per_round(world)
    total = steady + (world - 1) + drain(world)  # fill ramp + drain tail
    turn_time = ops * lps * cost.t_fwd_layer()
    # the ring's turn rows as the figures draw them: ``w_chunks`` weight
    # flows and the D, every slot its decoder layers alone
    weights = [post for post in _TURN_ROWS if post.width == "weight"][:w_chunks]
    rows = [replace(post, unit="layers")
            for post in weights + [post for post in _TURN_ROWS if post.width == "wgrad"]]
    sizes = cost.sizes(world)
    w_bytes, d_bytes = (sum(sizes.nbytes(post) for post in rows if post.width == width)
                        for width in ("weight", "wgrad"))

    def turn(p: int, t: int):
        busy = p <= t < p + steady
        return (turn_time if busy else 0.0), busy, {"busy": busy}

    g = _ring_graph(cluster, exec_cfg, total, turn, lambda left, p, t: (w_bytes, d_bytes))
    return BuiltSchedule(
        name=variant, graph=g, dims=dims, cluster=cluster,
        cost=cost, exec_cfg=exec_cfg, compute_workers=list(range(world)),
    )
