"""Rank-symmetric schedules: DP, FSDP, TP and SP from one builder.

These four families run the same program on every rank, so the
timeline of rank 0 is the timeline of the job: one compute stream plus
one shared ``("net",)`` resource carrying the collectives.  The compute
is rank 0's own program (:func:`~repro.core.api.rank_programs`, the
``[F(mb), B(mb)]*`` list the runtime executes, priced by
:meth:`~repro.sim.costmodel.CostModel.op_times`); the families differ
only in their loop's message table (:func:`~repro.core.api.posts`,
DESIGN §23) — which collective wraps which op, on which buffer:

* dp: an all-reduce of each chunk's weight gradients and one of the
  loss after the program;
* fsdp (ZeRO-3): an all-gather of each chunk's weights before its F and
  again before its B (weights are freed after use), a reduce-scatter of
  its gradients after the B, the loss's all-reduce at the end;
* tp (Megatron): two all-reduces of a ``G*S*H`` activation after each
  layer's F and two after its B;
* sp (gather-based context parallelism): all-gathers of the layer's
  K and V before its F, reduce-scatters of dK / dV after its B, and
  dp's all-reduces at the end (weights are replicated).

A family with a per-layer collective runs each op layer by layer (F in
layer order, B in reverse); dp, which has none, runs each op as one
task.  A row posted once per call is not part of an iteration.  A
family that splits the layer rather than the microbatches
(``"microbatches"`` not in the record's ``divides``: tp's heads, sp's
positions) computes ``1/P`` of each op on every rank.  Three rules make
the dependencies:

* a compute task follows the one before it and waits for the
  collectives of its own layer and microbatch issued before it;
* a gather may start once the compute ``ahead`` tasks back has finished
  — fsdp's two-layer prefetch window (what ``sim.memory`` charges), sp's
  K/V need the previous layer's output;
* a reduction starts after its compute.

A ring collective over ``P`` ranks of a ``b``-byte buffer costs
``(P-1) * (latency + b / (P * bw_min))`` a pass — paced by the *slowest*
link in the ring, which is how 10 GbE between servers poisons FSDP in
Table 3 while WeiPipe only pays Ethernet prices on the hops that
actually cross it — and puts ``(P-1) * b`` a pass on the wire, all
ranks together (:func:`collective_task`).
"""

from __future__ import annotations

from ...core.api import Strategy, posts, rank_programs
from ...parallel.common import PASSES, Post, Sizes
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, validate_divisible

__all__ = ["build_collective", "collective_task", "ring_collective_time"]


#: ring collectives lose to lockstep straggling: every step waits for the
#: slowest of P simultaneous transfers, so realised bandwidth is well
#: below the point-to-point figure (NCCL over TCP measures ~60-70%).
COLLECTIVE_EFFICIENCY = 0.60


def ring_collective_time(cluster: Cluster, nbytes: float) -> float:
    """Time for one ring all-gather or reduce-scatter of ``nbytes``."""
    p = cluster.world_size
    if p == 1:
        return 0.0
    slow = cluster.slowest_ring_link()
    bw = slow.bandwidth * COLLECTIVE_EFFICIENCY
    return (p - 1) * (slow.latency + nbytes / (p * bw))


def collective_task(g: TaskGraph, tid, post: Post, sizes: Sizes, cluster: Cluster,
                    resource, deps, i: int = 0):
    """One instance of a ring collective ``post`` (for chunk ``i``) on a
    ``b``-byte buffer: each of its ``count * PASSES`` ring passes is
    :func:`ring_collective_time` and puts ``(P-1) * b`` on the wire, all
    ranks together."""
    b, passes = sizes.nbytes(post, i), PASSES[post.what]
    return g.add(tid, resource, post.count * (passes * ring_collective_time(cluster, b)),
                 deps=deps, kind="comm", collective=post.what,
                 nbytes=post.count * passes * (cluster.world_size - 1) * b)


#: family -> how many compute tasks back its gathers may start: fsdp's
#: two-layer prefetch window (what ``sim.memory`` charges), sp's K/V need
#: the previous layer's output.
_AHEAD = {"fsdp": 2, "sp": 1}

#: the ``WorkloadDims`` field of each size a record's ``divides`` names.
_SIZES = {"heads": "n_heads", "ffn": "ffn", "seq": "seq_len",
          "microbatches": "n_microbatches"}


def build_collective(
    strategy: Strategy,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the rank-symmetric timeline of a dp / fsdp / tp / sp record."""
    world = cluster.world_size
    for dim in strategy.divides:
        validate_divisible(getattr(dims, _SIZES[dim]), world, f"{dim} per rank")
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    sizes = cost.sizes(world)
    rows = [post for post in posts(strategy.name) if post.when != "call"]
    ahead = _AHEAD.get(strategy.family, 0)
    layers = dims.n_layers
    # tasks per op: one per layer, or the whole op when nothing wraps a layer
    per_op = layers if any(post.when != "end" for post in rows) else 1
    split = 1 if "microbatches" in strategy.divides else world
    net = ("net",) if exec_cfg.overlap else ("compute", 0)
    g = TaskGraph()

    def issue(post, key, deps, i=0):
        return collective_task(g, (post.kind, *key), post, sizes, cluster, net, deps, i)

    program = rank_programs(strategy.name, world, dims.n_microbatches)[0][0]
    factored = cost.factored(strategy.whole)
    computes, issued = [], {}
    for (kind, mb), t in zip(program, cost.op_times(program, layers, all(factored))):
        order = range(layers) if kind == "F" else range(layers - 1, -1, -1)
        ops = [post for post in rows if post.when == kind]
        for key in [(mb, i) for i in order] if per_op > 1 else [(mb,)]:
            mine = issued.setdefault(key, [])
            for post in ops:
                if post.what == "all-gather":
                    window = (computes[-ahead],) if len(computes) >= ahead else ()
                    mine.append(issue(post, key, window, key[-1]))
            computes.append(g.add((kind, *key), ("compute", 0), t / (per_op * split),
                                  deps=tuple(computes[-1:] + mine),
                                  kind=kind, worker=0, mb=mb))
            for post in ops:
                if post.what != "all-gather":
                    mine.append(issue(post, key, (computes[-1],), key[-1]))
    if any(factored):  # the W halves of every microbatch, at once, before the sync
        n = sum(factored) * sum(kind == "B" for kind, _ in program)
        computes.append(g.add(("FORM",), ("compute", 0), n * cost.t_fwd_layer(),
                              deps=(computes[-1],), kind="W", worker=0))
    for post in rows:
        if post.when == "end":
            for i in range(layers) if post.unit == "chunk" else [None]:
                issue(post, () if i is None else (i,), (computes[-1],), i or 0)
    return BuiltSchedule(
        name=strategy.name, graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )
