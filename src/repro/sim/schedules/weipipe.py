"""The weight ring's turn arrivals, and Figures 3-4 drawn with them.

Per turn a worker receives three payloads from its predecessor (forward
weight slot, backward weight slot, gradient slot: ``2 W + 1 D``, i.e.
``36 H^2`` per Llama layer).  Each hop's bytes are the ring's turn rows
(``RingLoop.POSTS``, DESIGN §23), sized on the slot its flow holds there
— the embedding rides slot 0, the final norm and head the last
(:func:`turn_bytes`).  :func:`add_arrivals` adds them behind the turns
(:func:`~repro.sim.schedules.walk.build_schedule` walks the ring's
program into them; :func:`build_ring_figure` draws uniform ones):

* **weight flows prefetch**: slot arrivals depend only on the previous
  hop's arrival (weights are read-only — NCCL can forward them as soon
  as they land, the paper's ``batch_isend_irecv`` prefetch) plus a
  double-buffer constraint (a worker can hold the incoming slot for turn
  ``t+1`` while using turn ``t``'s, but no deeper);
* **the gradient flow cannot prefetch**: ``D`` leaving worker ``p`` at
  turn ``t`` contains ``p``'s turn-``t`` weight-gradient contribution,
  so its hop depends on that compute — this is the flow that paces the
  ring when communication is slow;
* a worker's turn ``t`` waits for its previous turn and the arrivals it
  consumes (:func:`arrived`); the homing hop at ``t = total`` brings
  every slot, and the last turn's gradients in ``D``, back to its owner.

The paper's *conceptual* zero-bubble diagrams (§4.3, Figs. 3-4: "their
implementation requires intricate and fine-grained control, which we
leave for future exploration") are :data:`RING_FIGURES` rows rendered by
:func:`build_ring_figure` on the same arrivals — pictures, not
strategies: nothing executes them and the planner does not search them.
The schedule that runs with a split backward is the ``zero-bubble`` row.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Tuple

from ...core.weipipe import HELD, RingLoop
from ...parallel.common import Sizes
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, comm_resource, validate_divisible

__all__ = ["add_arrivals", "arrived", "build_ring_figure", "turn_bytes", "RING_FIGURES"]

#: the ring's turn rows: F and B weight slots and the D riding with B.
_TURN_ROWS = [post for post in RingLoop.POSTS if post.when == "turn"]


def turn_bytes(sizes: Sizes, crossed: Callable[[int, int, int], bool]):
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


def arrived(p: int, t: int) -> Tuple:
    """The arrivals worker ``p``'s turn ``t`` consumes: both weight flows
    in one transfer, and the ``D``."""
    return (("AW", p, t), ("AD", p, t)) if t else ()


def add_arrivals(
    g: TaskGraph,
    cluster: Cluster,
    overlap: bool,
    total: int,
    wgrad: Callable[[int, int], bool],
    hop_bytes: Callable[[int, int, int], Tuple[int, int]],
    homing: bool = False,
) -> None:
    """Add the arrival tasks of ``total`` turns ``("T", p, t)``.

    ``wgrad(p, t)``: does worker ``p``'s turn ``t`` add a weight gradient
    into the ``D`` it passes on?  ``hop_bytes(left, p, t)`` is the weight
    and the ``D`` payload of the hop into ``p`` consumed at turn ``t``
    (:func:`turn_bytes`).  ``homing`` adds the arrivals at ``t = total``.
    """
    world = cluster.world_size
    for p in range(world):
        left = (p - 1) % world
        res = comm_resource(cluster, left, p, overlap)
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
            d_deps = [("T", left, t - 1)] if wgrad(left, t - 1) else []
            if t > 1:
                d_deps.append(("AD", left, t - 1))
            g.add(
                ("AD", p, t), res, link.time(d_bytes) if d_bytes else 0.0,
                deps=tuple(d_deps), kind="comm", nbytes=d_bytes, src=left, dst=p,
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
    validate_divisible(dims.n_layers, world, "layers per rank")
    validate_divisible(dims.n_microbatches, world, "microbatches per rank")
    lps, cost = dims.n_layers // world, CostModel(dims, cluster.gpu, exec_cfg)
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

    def busy(p: int, t: int) -> bool:
        return p <= t < p + steady

    g = TaskGraph()
    for p in range(world):
        for t in range(total):
            g.add(("T", p, t), ("compute", p), turn_time if busy(p, t) else 0.0,
                  deps=(("T", p, t - 1), *arrived(p, t)) if t else (),
                  kind="turn", worker=p, turn=t, busy=busy(p, t))
    add_arrivals(g, cluster, exec_cfg.overlap, total, busy, lambda left, p, t: (w_bytes, d_bytes))
    return BuiltSchedule(
        name=variant, graph=g, dims=dims, cluster=cluster,
        cost=cost, exec_cfg=exec_cfg, compute_workers=list(range(world)),
    )
