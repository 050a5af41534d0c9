"""Rank-symmetric schedules: DP, FSDP, TP and SP from one builder.

These four families run the same program on every rank, so the
timeline of rank 0 is the timeline of the job: one compute stream plus
one shared ``("net",)`` resource carrying the collectives.  The compute
is rank 0's own program (:func:`~repro.core.api.rank_programs`, the
``[F(mb), B(mb)]*`` list the runtime executes, priced by
:meth:`~repro.sim.costmodel.CostModel.op_times`); the families differ
only in their row of :data:`COLLECTIVES` — which collective wraps which
op, and on how many bytes:

* dp: one all-reduce of the full weight gradients after the program;
* fsdp (ZeRO-3): an all-gather of each layer's weights before its F and
  again before its B (weights are freed after use), a reduce-scatter of
  its gradients after the B;
* tp (Megatron): two all-reduces of a ``G*S*H`` activation after each
  layer's F and two after its B;
* sp (gather-based context parallelism): an all-gather of the layer's
  K and V before its F, a reduce-scatter of dK / dV after its B, and
  dp's gradient all-reduce at the end (weights are replicated).

A family with a per-layer collective runs each op layer by layer (F in
layer order, B in reverse); dp, which has none, runs each op as one
task.  A family that splits the layer rather than the microbatches
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
``(P-1) * (latency + b / (P * bw_min))`` — paced by the *slowest* link
in the ring, which is how 10 GbE between servers poisons FSDP in
Table 3 while WeiPipe only pays Ethernet prices on the hops that
actually cross it.
"""

from __future__ import annotations

from ...core.api import Strategy, rank_programs
from ..costmodel import CostModel, ExecConfig, WorkloadDims
from ..engine import TaskGraph
from ..hardware import Cluster
from .base import BuiltSchedule, validate_divisible

__all__ = ["COLLECTIVES", "build_collective", "ring_collective_time"]


#: ring collectives lose to lockstep straggling: every step waits for the
#: slowest of P simultaneous transfers, so realised bandwidth is well
#: below the point-to-point figure (NCCL over TCP measures ~60-70%).
COLLECTIVE_EFFICIENCY = 0.60

#: ring passes per collective: an all-reduce is a reduce-scatter plus an
#: all-gather.  A gather runs before its compute, a reduction after.
_PASSES = {"all-gather": 1, "reduce-scatter": 1, "all-reduce": 2.0}


def ring_collective_time(cluster: Cluster, nbytes: float) -> float:
    """Time for one ring all-gather or reduce-scatter of ``nbytes``."""
    p = cluster.world_size
    if p == 1:
        return 0.0
    slow = cluster.slowest_ring_link()
    bw = slow.bandwidth * COLLECTIVE_EFFICIENCY
    return (p - 1) * (slow.latency + nbytes / (p * bw))


#: family -> (gather window ``ahead``, its collectives).  A collective is
#: ``(op, kind, count, nbytes)``: ``count`` ring collectives of
#: ``nbytes(cost)`` bytes each around every layer of each ``op`` ("F" /
#: "B") of the program, or once after the program ("end").
COLLECTIVES = {
    "dp": (0, (("end", "all-reduce", 1, lambda c: c.wgrad_chunk_bytes(c.dims.n_layers)),)),
    "fsdp": (2, (("F", "all-gather", 1, lambda c: c.weight_chunk_bytes(1)),
                 ("B", "all-gather", 1, lambda c: c.weight_chunk_bytes(1)),
                 ("B", "reduce-scatter", 1, lambda c: c.wgrad_chunk_bytes(1)))),
    "tp": (0, (("F", "all-reduce", 2, lambda c: c.act_message_bytes()),
               ("B", "all-reduce", 2, lambda c: c.act_message_bytes()))),
    "sp": (1, (("F", "all-gather", 1, lambda c: 2 * c.act_message_bytes()),
               ("B", "reduce-scatter", 1, lambda c: 2 * c.act_message_bytes()),
               ("end", "all-reduce", 1, lambda c: c.wgrad_chunk_bytes(c.dims.n_layers)))),
}

#: the sizes a record's ``divides`` may name that the DES checks.  Not
#: ``ffn``: ``WorkloadDims.ffn`` is ``8H/3`` rounded to the nearest
#: integer where the runtime's ``default_ffn`` also rounds down to a
#: multiple of 8, so the DES's width is not the one a run splits.
_SIZES = {"heads": "n_heads", "seq": "seq_len", "microbatches": "n_microbatches"}


def build_collective(
    strategy: Strategy,
    dims: WorkloadDims,
    cluster: Cluster,
    exec_cfg: ExecConfig = ExecConfig(),
) -> BuiltSchedule:
    """Build the rank-symmetric timeline of a dp / fsdp / tp / sp record."""
    world = cluster.world_size
    for dim in strategy.divides:
        if dim in _SIZES:
            validate_divisible(getattr(dims, _SIZES[dim]), world, f"{dim} per rank")
    cost = CostModel(dims, cluster.gpu, exec_cfg)
    ahead, row = COLLECTIVES[strategy.family]
    layers = dims.n_layers
    # tasks per op: one per layer, or the whole op when nothing wraps a layer
    per_op = layers if any(op != "end" for op, *_ in row) else 1
    split = 1 if "microbatches" in strategy.divides else world
    net = ("net",) if exec_cfg.overlap else ("compute", 0)
    g = TaskGraph()

    priced = []  # the row as (op, kind, seconds, bytes)
    for op, kind, count, nbytes in row:
        size = nbytes(cost)
        t = count * (_PASSES[kind] * ring_collective_time(cluster, size))
        priced.append((op, kind, t, count * size))

    def issue(op, kind, t, size, key, deps):
        return g.add((kind, op, *key), net, t, deps=deps, kind="comm",
                     nbytes=size, collective=kind)

    program = rank_programs(strategy.name, world, dims.n_microbatches)[0][0]
    computes, issued = [], {}
    for (kind, mb), t in zip(program, cost.op_times(program, layers)):
        order = range(layers) if kind == "F" else range(layers - 1, -1, -1)
        for key in [(mb, i) for i in order] if per_op > 1 else [(mb,)]:
            mine = issued.setdefault(key, [])
            for op, coll, t_c, size in priced:
                if op == kind and coll == "all-gather":
                    window = (computes[-ahead],) if len(computes) >= ahead else ()
                    mine.append(issue(op, coll, t_c, size, key, window))
            computes.append(g.add((kind, *key), ("compute", 0), t / (per_op * split),
                                  deps=tuple(computes[-1:] + mine),
                                  kind=kind, worker=0, mb=mb))
            for op, coll, t_c, size in priced:
                if op == kind and coll != "all-gather":
                    mine.append(issue(op, coll, t_c, size, key, (computes[-1],)))
    for op, coll, t_c, size in priced:
        if op == "end":
            issue(op, coll, t_c, size, (), (computes[-1],))
    return BuiltSchedule(
        name=strategy.name, graph=g, dims=dims, cluster=cluster, cost=cost,
        exec_cfg=exec_cfg, compute_workers=[0],
    )
